"""Detector tests: covariance, GLRT confidence, voting, HR extraction."""

import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detector_reference as ref
from bcgbeat import detector, dlfumi, kernels
from bcgbeat import io as bio
from bcgbeat.detector import (
    DEFAULT_CODE_ITERS,
    BackgroundModel,
    ConfidenceSeries,
    DetectionParams,
    ModelMismatch,
    background_covariance,
    _coding_operands,
    _confidence_batch,
    confidence_series,
    hr_from_beats,
    hr_from_confidence_dft,
    learn_detection_params_pooled,
    train_model,
    vote_beats,
    window_starts,
)
from bcgbeat.dlfumi import Dictionary, FumiParams, fit
from bcgbeat.signals import (
    Preprocessing,
    Recording,
    build_bags,
    candidate_peaks,
    extract_instances,
)
from bcgbeat.synth import SynthConfig, generate

FS = 100.0


def confidence_batch(X, D, model, lam, n_iter):
    """_confidence_batch with the coding operands detect forms for D."""
    return _confidence_batch(X, D, model, lam, n_iter, _coding_operands(D, model, X.shape[0]))


def series_of(rec, D, model, pre=Preprocessing()):
    """confidence_series as detect runs it: on the candidate peaks of rec
    under pre, at lam 5e-3 and the default code iterations."""
    return confidence_series(rec, D, model, 5e-3, DEFAULT_CODE_ITERS, pre, candidate_peaks(rec, pre))


class TestBackgroundCovariance:
    def test_single_instance_gives_ridge_identity(self):
        x = np.random.default_rng(0).standard_normal(5)
        model = background_covariance(x.reshape(-1, 1), ridge=0.1)
        np.testing.assert_allclose(model.covariance, 0.1 * np.eye(5), atol=1e-15)

    def test_matches_textbook_double_loop(self):
        d, n = 4, 4
        X = np.eye(d) * np.arange(1.0, d + 1.0)
        mean = X.mean(axis=1)
        S = np.zeros((d, d))
        for i in range(n):
            r = X[:, i] - mean
            S += np.outer(r, r)
        S /= n - 1
        model = background_covariance(X, ridge=1e-6)
        np.testing.assert_allclose(model.covariance - model.ridge * np.eye(d), S, atol=1e-12)

    def test_ridge_lands_on_the_diagonal(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 40))
        plain = background_covariance(X.copy(), ridge=0.0)
        ridged = background_covariance(X, ridge=1e-3)
        np.testing.assert_allclose(
            np.diag(ridged.covariance) - np.diag(plain.covariance), 1e-3, atol=1e-15
        )
        off = ridged.covariance - np.diag(np.diag(ridged.covariance))
        off_plain = plain.covariance - np.diag(np.diag(plain.covariance))
        np.testing.assert_allclose(off, off_plain, atol=1e-15)

    def test_is_np_cov_bit_for_bit_without_a_copy(self):
        """train spends its negative block on the covariance: it is
        centered in place, and nothing of its size is allocated."""
        X = np.random.default_rng(2).standard_normal((91, 3000)) * 3.0 + 1.0
        want = np.cov(X, ddof=1)
        tracemalloc.start()
        try:
            model = background_covariance(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.ridge == 0.0
        assert model.covariance.tobytes() == want.tobytes()
        np.testing.assert_allclose(X.mean(axis=1), 0.0, atol=1e-12)
        assert peak < X.nbytes / 4  # the (d, d) products only

    def test_degenerate_sample_is_auto_regularized(self):
        # two identical instances: zero-variance directions need the ridge
        x = np.ones((4, 2))
        model = background_covariance(x, ridge=0.0)
        assert model.ridge > 0.0
        np.testing.assert_allclose(model.mahalanobis_sq(np.ones((4, 1))), 4.0 / model.ridge)

    def test_model_rejects_non_positive_definite_input(self):
        with pytest.raises(np.linalg.LinAlgError):
            BackgroundModel(covariance=np.zeros((3, 3)), ridge=0.0)


def solve_oracle(covariance, R):
    """r^T Sigma^-1 r per column, by a general solve."""
    return np.einsum("ij,ij->j", R, np.linalg.solve(covariance, R))


class TestMahalanobis:
    def test_matches_a_solve_on_a_well_conditioned_covariance(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((91, 300))
        model = BackgroundModel(covariance=A @ A.T / 300 + 0.05 * np.eye(91), ridge=0.05)
        R = rng.standard_normal((91, 500))
        want = solve_oracle(model.covariance, R)
        np.testing.assert_allclose(model.mahalanobis_sq(R), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(7, 4), (4, 4, 1), (4,)], ids=["transposed", "3d", "1d"])
    def test_takes_residuals_as_d_by_n_only(self, shape):
        """A square (n, d) block would pass for (d, n), so no other layout is
        guessed at."""
        model = BackgroundModel(covariance=np.eye(4), ridge=1.0)
        with pytest.raises(ValueError, match=r"residuals must be \(4, n\)"):
            model.mahalanobis_sq(np.ones(shape))

    def test_matches_a_solve_on_a_trained_covariance(self, trained_small):
        # The ridge floor leaves this covariance ill-conditioned, so any two
        # methods (the solve oracle included) agree only to cond * eps.
        _, _, _, model = trained_small
        R = np.random.default_rng(7).standard_normal((model.d, 500))
        rtol = np.linalg.cond(model.covariance) * np.finfo(float).eps
        np.testing.assert_allclose(
            model.mahalanobis_sq(R), solve_oracle(model.covariance, R), rtol=rtol, atol=0
        )


def orthonormal_triplet(rng, d=12):
    Q, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    return Q[:, 0], Q[:, 1], Q[:, 2]


class TestHsdConfidence:
    def test_background_instance_scores_one(self):
        d1, d2, _ = orthonormal_triplet(np.random.default_rng(2))
        D = Dictionary(d1.reshape(-1, 1), d2.reshape(-1, 1))
        model = BackgroundModel(covariance=np.eye(12), ridge=0.0)
        conf = confidence_batch(d2[:, None], D, model, 0.0, DEFAULT_CODE_ITERS)
        assert conf.tolist() == [1.0]

    def test_residual_ratio_is_exact_for_orthonormal_atoms(self):
        # x = sqrt(3)*target + 1*off-dictionary direction:
        # background residual power 4, full residual power 1
        d1, d2, d3 = orthonormal_triplet(np.random.default_rng(3))
        D = Dictionary(d1.reshape(-1, 1), d2.reshape(-1, 1))
        model = BackgroundModel(covariance=np.eye(12), ridge=0.0)
        x = np.sqrt(3.0) * d1 + d3
        conf = confidence_batch(x[:, None], D, model, 0.0, DEFAULT_CODE_ITERS)
        assert abs(conf[0] - 4.0) <= 1e-9

    def test_dimension_mismatch_is_rejected(self):
        rng = np.random.default_rng(4)
        d1, d2, _ = orthonormal_triplet(rng)
        D = Dictionary(d1.reshape(-1, 1), d2.reshape(-1, 1))
        model = BackgroundModel(covariance=np.eye(12), ridge=0.0)
        with pytest.raises(ValueError, match="does not match"):
            confidence_batch(np.zeros(7)[:, None], D, model, 0.0, DEFAULT_CODE_ITERS)
        bad_model = BackgroundModel(covariance=np.eye(5), ridge=0.0)
        with pytest.raises(ValueError, match="does not match"):
            confidence_batch(np.zeros(12)[:, None], D, bad_model, 0.0, DEFAULT_CODE_ITERS)


@st.composite
def scoring_problems(draw):
    """(X, D, model, lam, n_iter, floor): unit atoms D (d, T+M), a
    covariance ridged by a drawn share of its trace, and windows X (d, n)
    that mix the target atoms with noise, at one of three scales.  With
    `floor`, the atoms are orthonormal, lam is 0 and window 0 is a
    background atom: the background reconstructs it exactly."""
    T, M, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    d = draw(st.integers(3 * (T + M), 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.standard_normal((d, T + M))
    atoms /= np.linalg.norm(atoms, axis=0)
    floor = draw(st.booleans())
    if floor:
        atoms = np.linalg.qr(atoms)[0]
    B = rng.standard_normal((d, draw(st.integers(1, 2 * d))))
    S = B @ B.T / B.shape[1]
    ridge = draw(st.sampled_from((1e-3, 1e-2, 0.1, 1.0))) * np.trace(S) / d
    noise = draw(st.sampled_from((0.3, 1.0)))
    X = atoms[:, :T] @ rng.standard_normal((T, n)) + noise * rng.standard_normal((d, n))
    X *= draw(st.sampled_from((1e-2, 1.0, 1e2)))
    lam = 0.0 if floor else draw(st.sampled_from((0.0, 1e-3, 5e-3, 5e-2)))
    if floor:
        X[:, 0] = atoms[:, T]
    D = Dictionary(atoms[:, :T], atoms[:, T:])
    model = BackgroundModel(S + ridge * np.eye(d), ridge)
    return X, D, model, lam, draw(st.sampled_from((1, 5, 50))), floor


class TestGramFormScores:
    """The gram-form scorer against the explicit residual blocks of
    tests/detector_reference.py."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scoring_problems())
    def test_matches_the_explicit_residuals(self, case):
        X, D, model, lam, n_iter, floor = case
        got = confidence_batch(X, D, model, lam, n_iter)
        want = ref.confidence_batch(X, D, model, lam, n_iter)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if floor:
            assert got[0] == want[0] == 1.0

    def test_one_call_peaks_near_its_block(self, trained_small):
        """No residual block or whitened copy of one is held: the coding
        peak of a 1,000-column block stays within 1.5x its bytes."""
        _, res, result, model = trained_small
        _, filt, peaks = candidate_peaks(res.recording)[0]
        X = np.ascontiguousarray(extract_instances(filt, np.resize(peaks, 1000), 45, False).T)
        tracemalloc.start()
        try:
            confidence_batch(X, result.dictionary, model, 5e-3, DEFAULT_CODE_ITERS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (91, 1000)
        assert peak <= 1.5 * X.nbytes

    def test_detect_codes_with_the_grams_fit_coded_with(self, trained_small, monkeypatch, tmp_path):
        """At T + M = 18, where NumPy's symmetric and general products of
        the atoms round apart, detect's coder holds fit's last grams and
        step lengths bit for bit, after the model file round trip."""
        _, res, _, model = trained_small
        blocks = build_bags([candidate_peaks(res.recording)], [res.recording.gt_beat_times])
        last = []
        real = dlfumi.coding_operands

        def spy(*atoms):
            last[:] = real(*atoms)
            return last

        monkeypatch.setattr(dlfumi, "coding_operands", spy)
        result = fit(blocks.Xp, blocks.Xn, FumiParams(T=9, M=9, max_em_iters=3), seed=0)
        monkeypatch.undo()
        bio.write_dictionary(tmp_path / "model.csv", result.dictionary)
        D = bio.read_dictionary(tmp_path / "model.csv")
        coder = detector._coding_operands(D, model, D.d)[:4]
        assert [np.asarray(v).tobytes() for v in coder] == [np.asarray(v).tobytes() for v in last]


@pytest.fixture(scope="module")
def trained_small():
    """A small trained model shared by the confidence tests."""
    cfg = SynthConfig(duration_s=90.0, hr_bpm=66.0, snr_db=10.0, seed=7)
    res = generate(cfg)
    blocks = build_bags([candidate_peaks(res.recording)], [res.recording.gt_beat_times])
    result = fit(blocks.Xp, blocks.Xn, FumiParams(T=1, M=2), seed=0)
    model = background_covariance(blocks.Xn)
    return cfg, res, result, model


class TestConfidenceSeries:
    def test_all_zero_recording_has_no_candidates(self, trained_small):
        _, _, result, model = trained_small
        rec = Recording(channels=[np.zeros(2000) for _ in range(2)], sample_rate_hz=FS)
        series = series_of(rec, result.dictionary, model)
        assert series.n_channels == 2
        for idx, conf in zip(series.peak_indices, series.confidences):
            assert idx.size == 0 and conf.size == 0

    def test_flat_channel_gives_no_candidates_and_is_logged(self, trained_small, caplog):
        _, res, result, model = trained_small
        channels = list(res.recording.channels)
        channels[1] = np.full(res.recording.n_samples, -3.5)
        rec = Recording(channels=channels, sample_rate_hz=FS)
        with caplog.at_level("WARNING", logger="bcgbeat.signals"):
            series = series_of(rec, result.dictionary, model)
        assert series.peak_indices[1].size == 0 and series.confidences[1].size == 0
        assert all(series.peak_indices[ch].size > 0 for ch in (0, 2, 3))
        assert [r.getMessage().split(" (")[0] for r in caplog.records] == ["ch1 is flat"]

    def test_planted_beat_is_the_only_confident_candidate(self, trained_small):
        cfg, res, result, model = trained_small
        n, plant = 3000, 1500
        rng = np.random.default_rng(11)
        channels = []
        for gain, delay in zip(cfg.gains, cfg.delays):
            sig = rng.normal(0.0, res.noise_sd, n)
            c = plant + int(delay)
            sig[c - 45 : c + 46] += gain * res.template
            channels.append(sig)
        rec = Recording(channels=channels, sample_rate_hz=FS)
        series = series_of(rec, result.dictionary, model)
        for ch, (idx, conf) in enumerate(zip(series.peak_indices, series.confidences)):
            confident = idx[conf >= 6.0]
            assert confident.size == 1
            assert abs(int(confident[0]) - (plant + int(cfg.delays[ch]))) <= 5

    def test_heartbeats_separate_from_background(self, trained_small):
        cfg, res, result, model = trained_small
        series = series_of(res.recording, result.dictionary, model)
        gt = res.recording.gt_beat_times
        beat_conf, bg_conf = [], []
        for idx, conf in zip(series.peak_indices, series.confidences):
            for i, c in zip(idx, conf):
                dist = int(np.min(np.abs(gt - i)))
                (beat_conf if dist <= 15 else bg_conf).append(float(c))
        assert statistics.median(beat_conf) >= 2.0 * statistics.median(bg_conf)

    def test_full_coding_worse_than_its_warm_start_is_an_error(self, trained_small, monkeypatch):
        _, _, result, model = trained_small
        real = kernels.ista_negative
        K = result.dictionary.atoms.shape[1]

        def worse(gram, *args, **kwargs):
            # only the full-dictionary coding, not its background warm start
            A = real(gram, *args, **kwargs)
            return A + 1.0 if gram.shape[0] == K else A

        monkeypatch.setattr(kernels, "ista_negative", worse)
        x = result.dictionary.target_atoms[:, 0]
        for score in (confidence_batch, ref.confidence_batch):  # the explicit residuals agree
            with pytest.raises(ModelMismatch, match="worsened its warm start"):
                score(x[:, None], result.dictionary, model, 5e-3, DEFAULT_CODE_ITERS)

    def test_all_confidences_are_positive(self, trained_small):
        _, res, result, model = trained_small
        series = series_of(res.recording, result.dictionary, model)
        for conf in series.confidences:
            assert np.all(conf > 0.0)


def channel0_count(rec):
    return candidate_peaks(rec)[0][2].size


def truncated_to_count(rec, k, r):
    """rec cut short, by as few samples as needed, until its channel 0 has
    k * c + r candidates for some c >= 1; returns (recording, c)."""
    for n in range(rec.n_samples, rec.n_samples // 2, -25):
        cut = Recording(channels=[c[:n] for c in rec.channels], sample_rate_hz=rec.sample_rate_hz)
        count = channel0_count(cut)
        if (count - r) % k == 0 and count - r >= k:
            return cut, (count - r) // k
    raise AssertionError(f"no truncation gives k * c + {r} candidates")


def assert_series_close(got, want):
    assert got.fs == want.fs and got.n_samples == want.n_samples
    for gi, wi in zip(got.peak_indices, want.peak_indices, strict=True):
        np.testing.assert_array_equal(gi, wi, strict=True)
    for gc, wc in zip(got.confidences, want.confidences, strict=True):
        np.testing.assert_allclose(gc, wc, rtol=1e-12, atol=0)


class TestChunkedCoding:
    """The column-chunked coding against one call per channel
    (tests/detector_reference.py), with a small chunk so that a 90-s
    recording spans every chunk layout."""

    @pytest.mark.parametrize(
        "k, r",
        [(2, -1), (2, 0), (2, 1), (3, -1), (3, 0), (3, 1), (7, 3)],
        ids=["2c-1", "2c", "2c+1", "3c-1", "3c", "3c+1", "7c+3"],
    )
    def test_confidence_series_matches_one_call_per_channel(self, trained_small, monkeypatch, k, r):
        _, res, result, model = trained_small
        rec, chunk = truncated_to_count(res.recording, k, r)
        monkeypatch.setattr(detector, "_CODE_CHUNK", chunk)
        pre = Preprocessing(zscore=True)
        got = series_of(rec, result.dictionary, model, pre)
        want = ref.confidence_series(rec, result.dictionary, model, lam=5e-3, pre=pre)
        assert got.peak_indices[0].size == k * chunk + r
        assert_series_close(got, want)
        # chunks this narrow may round a few confidences differently; the
        # beats must not move
        params = DetectionParams(threshold=1.5)
        got_beats, want_beats = (np.asarray(vote_beats(s, params)) for s in (got, want))
        np.testing.assert_array_equal(got_beats[:, 0], want_beats[:, 0])
        np.testing.assert_allclose(got_beats[:, 1], want_beats[:, 1], rtol=1e-12, atol=0)

    def test_channel_shorter_than_one_chunk_is_one_call(self, trained_small, monkeypatch):
        _, res, result, model = trained_small
        monkeypatch.setattr(detector, "_CODE_CHUNK", channel0_count(res.recording) + 1)
        got = series_of(res.recording, result.dictionary, model)
        want = ref.confidence_series(res.recording, result.dictionary, model, lam=5e-3)
        assert_series_close(got, want)

    def test_coding_operands_are_formed_once_per_call(self, trained_small, monkeypatch):
        """The grams and step lengths (background and full dictionary) are
        formed once per call, not once per chunk."""
        _, res, result, model = trained_small
        calls = []
        real = detector.coding_operands

        def spy(*atoms):
            calls.append(atoms)
            return real(*atoms)

        monkeypatch.setattr(detector, "coding_operands", spy)
        monkeypatch.setattr(detector, "_CODE_CHUNK", 7)
        assert channel0_count(res.recording) > 3 * 7
        series_of(res.recording, result.dictionary, model)
        assert len(calls) == 1 and len(calls[0]) == 2

    @pytest.mark.parametrize("chunk", [1, 7, 64, 2048])
    def test_calls_code_whole_chunks_then_the_remainder(self, trained_small, monkeypatch, chunk):
        _, res, result, model = trained_small
        widths = []
        real = detector._confidence_batch

        def spy(X, *args):
            widths.append(X.shape[1])
            return real(X, *args)

        monkeypatch.setattr(detector, "_confidence_batch", spy)
        monkeypatch.setattr(detector, "_CODE_CHUNK", chunk)
        series = series_of(res.recording, result.dictionary, model)
        assert max(widths) <= chunk
        calls = iter(widths)
        for p in series.peak_indices:
            whole, rest = divmod(p.size, chunk)
            mine = [next(calls) for _ in range(whole + (rest > 0))]
            assert mine == [chunk] * whole + [rest] * (rest > 0)
        assert next(calls, None) is None

    def test_peak_memory_is_a_few_times_the_channels(self, trained_small):
        """Only the filtered channels and one chunk's windows and coding
        blocks are alive at once: 3.65x the channels' bytes here.  A last
        call of two to three chunks took 6.1x, and holding every channel's
        candidate block until all were coded took 11.1x."""
        _, _, result, model = trained_small
        rec = generate(SynthConfig(duration_s=600.0, hr_bpm=66.0, snr_db=10.0, seed=5)).recording
        channel_bytes = sum(c.nbytes for c in rec.channels)
        tracemalloc.start()
        try:
            series_of(rec, result.dictionary, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * channel_bytes


def two_channel_series(indices_confs, n_samples=2000):
    idx = [np.asarray(i, dtype=int) for i, _ in indices_confs]
    conf = [np.asarray(c, dtype=float) for _, c in indices_confs]
    return ConfidenceSeries(fs=FS, n_samples=n_samples, peak_indices=idx, confidences=conf)


class TestVoteBeats:
    def test_two_channels_agree_on_the_median_index(self):
        series = two_channel_series([([100], [2.0]), ([110], [2.0])])
        params = DetectionParams(threshold=1.32, neighborhood=25, min_votes=2)
        beats = vote_beats(series, params)
        assert [b[0] for b in beats] == [105]

    def test_single_channel_cannot_confirm(self):
        series = two_channel_series([([100], [2.0]), ([400], [0.5])])
        params = DetectionParams(threshold=1.32, neighborhood=25, min_votes=2)
        assert vote_beats(series, params) == []

    def test_nothing_above_threshold(self):
        series = two_channel_series([([100], [1.0]), ([110], [1.2])])
        params = DetectionParams(threshold=1.32, neighborhood=25, min_votes=2)
        assert vote_beats(series, params) == []

    def test_same_channel_twice_is_one_vote(self):
        series = two_channel_series([([100, 110], [2.0, 2.0]), ([900], [2.0])])
        params = DetectionParams(threshold=1.32, neighborhood=25, min_votes=2)
        assert vote_beats(series, params) == []

    def test_raising_threshold_never_adds_beats(self):
        rng = np.random.default_rng(5)
        idx = [np.sort(rng.choice(4000, size=60, replace=False)) for _ in range(3)]
        conf = [rng.uniform(0.5, 3.0, 60) for _ in range(3)]
        series = ConfidenceSeries(fs=FS, n_samples=4000, peak_indices=idx, confidences=conf)
        prev = None
        for thr in np.arange(0.5, 3.1, 0.1):
            n = len(vote_beats(series, DetectionParams(threshold=float(thr))))
            if prev is not None:
                assert n <= prev
            prev = n

    def test_confirmed_beats_respect_refractory_spacing(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            idx = [np.sort(rng.choice(6000, size=80, replace=False)) for _ in range(4)]
            conf = [rng.uniform(0.5, 4.0, 80) for _ in range(4)]
            series = ConfidenceSeries(
                fs=FS, n_samples=6000, peak_indices=idx, confidences=conf
            )
            params = DetectionParams(threshold=1.0, neighborhood=20, refractory_s=0.3)
            beats = [b[0] for b in vote_beats(series, params)]
            if len(beats) > 1:
                assert np.min(np.diff(beats)) >= int(round(0.3 * FS))


class TestLearnDetectionParams:
    def make_separable(self):
        n = 12000
        gt = np.arange(100, n - 100, 100)
        noise = gt + 50
        idx = np.sort(np.concatenate([gt, noise]))
        conf = np.where(np.isin(idx, gt), 2.0, 1.13)
        series = ConfidenceSeries(
            fs=FS,
            n_samples=n,
            peak_indices=[idx, idx + 2],
            confidences=[conf.copy(), conf.copy()],
        )
        return series, gt

    def test_grid_picks_smallest_threshold_above_the_noise(self):
        series, gt = self.make_separable()
        params = learn_detection_params_pooled([series], [gt])
        assert params.threshold == 1.15
        assert params.neighborhood == 15
        beats = vote_beats(series, params)
        assert len(beats) == gt.size

    def test_single_beat_is_found_at_default_grid(self):
        series = two_channel_series([([1000], [2.0]), ([1010], [2.0])])
        params = learn_detection_params_pooled([series], [np.array([1005])])
        beats = vote_beats(series, params)
        assert len(beats) == 1

    def test_result_is_reproducible(self):
        series, gt = self.make_separable()
        first = learn_detection_params_pooled([series], [gt])
        assert learn_detection_params_pooled([series], [gt]) == first

    def test_empty_groundtruth_is_rejected(self):
        series, _ = self.make_separable()
        with pytest.raises(ValueError):
            learn_detection_params_pooled([series], [np.array([], dtype=int)])

    def test_pooled_with_one_recording_matches_single(self):
        series, gt = self.make_separable()
        single = learn_detection_params_pooled([series], [gt])
        pooled = learn_detection_params_pooled([series, series], [gt, gt])
        assert single == pooled

    def test_peak_memory_is_a_few_times_the_events(self):
        """A pass of the grid holds the events above a few thresholds of one
        recording, at most four times its events, so with every confidence
        above every threshold the search peaks at 5.8x the bytes of the
        (index, channel, confidence) events of three recordings.  All 41
        thresholds of a recording in one pass took about 50x."""
        rng = np.random.default_rng(0)
        n = 3000
        series_list = [
            ConfidenceSeries(
                fs=FS,
                n_samples=n,
                peak_indices=[np.sort(rng.integers(0, n, 300)) for _ in range(4)],
                confidences=[np.full(300, 9.0) for _ in range(4)],
            )
            for _ in range(3)
        ]
        gt_list = [np.arange(50, n, 85)] * 3
        event_bytes = 3 * 4 * 300 * 24
        tracemalloc.start()
        try:
            learn_detection_params_pooled(series_list, gt_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.0 * event_bytes


class TestTrainModel:
    """train_model rejects recordings it cannot learn one concept from
    before it filters any of them."""

    @pytest.fixture(autouse=True)
    def no_filtering(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("filtered a recording train_model should reject")

        monkeypatch.setattr(detector, "candidate_peaks", never)

    def test_mixed_sample_rates_are_rejected(self):
        recs = [Recording([np.zeros(3000)], fs, gt_beat_times=[500, 1500]) for fs in (100.0, 200.0)]
        with pytest.raises(ValueError, match="recording 2 is sampled at 200 Hz but the first at 100 Hz"):
            train_model(recs, FumiParams())

    @pytest.mark.parametrize("gt", [None, []], ids=["none", "empty"])
    def test_a_recording_without_groundtruth_is_rejected(self, gt):
        recs = [Recording([np.zeros(3000)], FS, gt_beat_times=[500, 1500]),
                Recording([np.zeros(3000)], FS, gt_beat_times=gt)]
        with pytest.raises(ValueError, match="^groundtruth beats required to learn detection"):
            train_model(recs, FumiParams())


class TestWindowStarts:
    def test_default_grid_over_three_minutes(self):
        starts = window_starts(180.0, 60.0, 15.0)
        np.testing.assert_array_equal(starts, np.arange(0.0, 121.0, 15.0))

    def test_one_window_minus_a_microsecond_fits_none(self):
        starts = window_starts(60.0 - 1e-6, 60.0, 15.0)
        assert starts.size == 0 and starts.dtype == float

    @pytest.mark.parametrize(
        "window_s, step_s",
        [(60.0, 0.0), (60.0, -15.0), (60.0, np.nan), (60.0, np.inf),
         (0.0, 15.0), (-5.0, 15.0), (np.nan, 15.0), (np.inf, 15.0)],
    )
    def test_non_positive_or_non_finite_settings_are_rejected(self, window_s, step_s):
        with pytest.raises(ValueError, match="must be positive and finite"):
            window_starts(180.0, window_s, step_s)


class TestHrFromBeats:
    def test_one_second_period_is_sixty_bpm(self):
        beats = np.arange(0, 30001, 100)
        hr = hr_from_beats(beats, FS, 60.0, 15.0, 300.0)
        assert hr.n_windows > 0
        np.testing.assert_allclose(hr.bpm, 60.0, atol=1e-12)

    def test_three_quarter_second_period_is_eighty_bpm(self):
        beats = np.arange(0, 30001, 75)
        hr = hr_from_beats(beats, FS, 60.0, 15.0, 300.0)
        np.testing.assert_allclose(hr.bpm, 80.0, atol=1e-12)

    def test_periodic_train_is_exact_for_any_period(self):
        for period in (80, 120, 150):
            beats = np.arange(0, 24000, period)
            hr = hr_from_beats(beats, FS, 60.0, 15.0, beats[-1] / FS)
            np.testing.assert_allclose(hr.bpm, 6000.0 / period, atol=1e-12)

    def test_sparse_windows_are_gaps(self):
        beats = np.array([0, 100, 10000])
        hr = hr_from_beats(beats, FS, 60.0, 15.0, 100.0)
        assert np.isnan(hr.bpm[-1])
        assert not np.isnan(hr.bpm[0])

    def test_beats_in_any_order_give_the_same_series(self):
        beats = np.cumsum(np.random.default_rng(3).integers(60, 120, 200))
        duration = beats[-1] / FS
        hr = hr_from_beats(beats, FS, 60.0, 15.0, duration)
        shuffled = hr_from_beats(np.random.default_rng(4).permutation(beats), FS, 60.0, 15.0, duration)
        np.testing.assert_array_equal(shuffled.times, hr.times)
        np.testing.assert_array_equal(shuffled.bpm, hr.bpm)

    def test_window_centers_follow_the_step(self):
        beats = np.arange(0, 20000, 100)
        hr = hr_from_beats(beats, FS, 60.0, 15.0, 199.0)
        np.testing.assert_allclose(np.diff(hr.times), 15.0)
        assert hr.times[0] == 30.0


class TestHrFromConfidenceDft:
    def test_sinusoidal_confidence_maps_to_its_frequency(self):
        n = 12000
        t = np.arange(n) / FS
        conf = 2.0 + np.sin(2.0 * np.pi * 1.2 * t)
        series = ConfidenceSeries(
            fs=FS, n_samples=n, peak_indices=[np.arange(n)], confidences=[conf]
        )
        hr = hr_from_confidence_dft(series)
        assert hr.n_windows == 5
        np.testing.assert_allclose(hr.bpm, 72.0, atol=1.0)

    def test_constant_confidence_has_no_spectral_peak(self):
        n = 12000
        series = ConfidenceSeries(
            fs=FS, n_samples=n, peak_indices=[np.arange(n)], confidences=[np.full(n, 1.5)]
        )
        hr = hr_from_confidence_dft(series)
        assert np.all(np.isnan(hr.bpm))

    def test_empty_windows_are_gaps(self):
        # all candidates in the first minute; later windows hold nothing
        idx = np.arange(0, 6000, 90)
        series = ConfidenceSeries(
            fs=FS,
            n_samples=18000,
            peak_indices=[idx],
            confidences=[np.full(idx.size, 2.0)],
        )
        hr = hr_from_confidence_dft(series)
        assert not np.isnan(hr.bpm[0])
        assert np.isnan(hr.bpm[-1])
