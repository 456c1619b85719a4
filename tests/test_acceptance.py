"""Acceptance gate: one test per release criterion.

Each test prints a single verdict line (visible with -s; pytest -v shows
the same pass/fail per test) and asserts the pinned tolerance.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

from baselines_reference import en_hr, pick_best_channel, wppd_hr
from bcgbeat.detector import (
    DEFAULT_DFT_BAND_HZ,
    ConfidenceSeries,
    DetectionParams,
    detect_recording,
    hr_from_beats,
    train_model,
    vote_beats,
)
from bcgbeat.dlfumi import (
    Dictionary,
    FumiParams,
    background_atom_update,
    fit,
    gamma_matrix,
    resolve_psi,
    target_atom_update,
    update_products,
)
from bcgbeat.kernels import positive_gradient, soft_threshold
from bcgbeat.metrics import bland_altman, evaluate, paired_t, pearson_r
from bcgbeat.signals import Preprocessing, bandpass_filter, build_bags, candidate_peaks
from bcgbeat.synth import SynthConfig, generate
from dlfumi_reference import objective

FS = 100.0


def check(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE c{num:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"c{num:02d} {name}: {detail}"


def unit_columns(rng, d, k):
    A = rng.standard_normal((d, k))
    return A / np.linalg.norm(A, axis=0)


# --- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="session")
def template_recovery():
    """5-minute training run with the standard individual-mode parameters,
    voting-parameter grid included."""
    res = generate(SynthConfig(duration_s=300.0, snr_db=10.0, seed=0))
    t0 = time.perf_counter()
    model, _ = train_model([res.recording], FumiParams())
    elapsed = time.perf_counter() - t0
    return res, model, elapsed


@pytest.fixture(scope="session")
def hrv_pipeline():
    """Train on one 5-minute recording, detect on a held-out one with
    sinusoidal heart-rate variability, and score the estimate with eval's
    metrics.evaluate."""
    train_cfg = SynthConfig(
        duration_s=300.0,
        hr_bpm=70.0,
        snr_db=10.0,
        artifact_rate_per_min=3.0,
        artifact_amp=6.0,
        seed=10,
    )
    test_cfg = dataclasses.replace(train_cfg, hrv_amp_bpm=5.0, hrv_period_s=60.0, seed=11)
    train, test = generate(train_cfg), generate(test_cfg)
    model, _ = train_model([train.recording], FumiParams(), Preprocessing(zscore=True))
    beats, est_hr = detect_recording(test.recording, model)
    gt = test.recording.gt_beat_times
    gt_hr = hr_from_beats(gt, FS, 60.0, 15.0, test.recording.duration_s)
    report, _, _ = evaluate(gt_hr, est_hr, np.asarray([b[0] for b in beats]) / FS, gt / FS)
    return dict(test=test, gt_hr=gt_hr, report=report)


@pytest.fixture(scope="session")
def dft_pipeline():
    """Constant-rate train/test pair evaluated through the spectral path."""
    train_cfg = SynthConfig(duration_s=300.0, hr_bpm=72.0, snr_db=10.0, seed=40)
    test_cfg = dataclasses.replace(train_cfg, seed=41)
    train, test = generate(train_cfg), generate(test_cfg)
    model, _ = train_model([train.recording], FumiParams())
    return detect_recording(test.recording, model, dft_band_hz=DEFAULT_DFT_BAND_HZ)[1]


# --- criteria ------------------------------------------------------------------


class TestCriteria:
    def test_c01_gradient_oracle(self):
        def smooth_part(x, D, a_full, p):
            T = D.n_target
            r_full = x - D.atoms @ a_full
            r_bg = x - D.background_atoms @ a_full[T:]
            return 0.5 * (p * r_full @ r_full + (1.0 - p) * r_bg @ r_bg)

        rng = np.random.default_rng(42)
        d, T, M = 91, 3, 3
        h = 1e-6
        worst = 0.0
        t0 = time.perf_counter()
        for _ in range(100):
            D = Dictionary(unit_columns(rng, d, T), unit_columns(rng, d, M))
            x = rng.standard_normal(d)
            a = rng.standard_normal(T + M)
            p = float(rng.uniform(0.0, 1.0))
            B = D.background_atoms
            work = (np.empty((T + M, 1)), np.empty((M, 1)))
            grad_t, grad_b = positive_gradient(
                D.atoms.T @ D.atoms, B.T @ B, (D.atoms.T @ x)[:, None], np.array([p]), a[:, None], T,
                work, np.array([1.0 - p]),
            )
            g = np.concatenate([grad_t[:, 0], grad_b[:, 0]])
            g_fd = np.empty(T + M)
            for j in range(T + M):
                ap, am = a.copy(), a.copy()
                ap[j] += h
                am[j] -= h
                g_fd[j] = (smooth_part(x, D, ap, p) - smooth_part(x, D, am, p)) / (2 * h)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        check(
            1,
            "code gradient vs finite differences",
            worst < 1e-5 and elapsed < 10.0,
            f"worst rel err {worst:.3e}, elapsed {elapsed:.2f} s",
        )

    def test_c02_prox_oracle(self):
        rng = np.random.default_rng(7)
        grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
        worst = 0.0
        for _ in range(1000):
            v = float(rng.uniform(-2.0, 2.0))
            lam = float(rng.uniform(0.0, 1.0))
            obj = 0.5 * (grid - v) ** 2 + lam * np.abs(grid)
            best = grid[np.argmin(obj)]
            worst = max(worst, abs(float(soft_threshold(v, lam, np.empty(()))) - best))
        check(2, "soft threshold vs grid prox", worst < 2e-4, f"worst err {worst:.3e}")

    def test_c03_atom_update_oracle(self):
        rng = np.random.default_rng(123)
        d, T, M = 8, 1, 2
        params = FumiParams(T=T, M=M)
        worst = 0.0
        for _ in range(20):
            X = rng.standard_normal((d, 5))
            # the positive / negative instance blocks fit() updates atoms from
            Xp, Xn = np.ascontiguousarray(X[:, :3]), np.ascontiguousarray(X[:, 3:])
            D = Dictionary(unit_columns(rng, d, T), unit_columns(rng, d, M))
            codes = rng.standard_normal((T + M, 5)) * 0.7
            codes[:T, 3:] = 0.0
            posteriors = np.zeros(5)
            posteriors[:3] = rng.uniform(0.05, 0.95, 3)
            old_targets = D.target_atoms.copy()
            gamma = gamma_matrix(D, params.gamma, old_targets)

            def obj_with(atom, which, k):
                D2 = Dictionary(D.target_atoms.copy(), D.background_atoms.copy())
                if which == "target":
                    D2.target_atoms[:, k] = atom
                else:
                    D2.background_atoms[:, k] = atom
                return objective(
                    Xp, Xn, D2, codes, posteriors, params,
                    gamma=gamma, target_atoms_old=old_targets,
                )

            def coord_descent(start, which, k):
                atom = start.copy()
                for _ in range(200):
                    biggest = 0.0
                    for j in range(d):
                        base = atom[j]
                        f0 = obj_with(atom, which, k)
                        atom[j] = base + 1.0
                        fp = obj_with(atom, which, k)
                        atom[j] = base - 1.0
                        fm = obj_with(atom, which, k)
                        curv = fp - 2.0 * f0 + fm
                        step = -0.5 * (fp - fm) / curv
                        atom[j] = base + step
                        biggest = max(biggest, abs(step))
                    if biggest < 1e-8:
                        break
                return atom

            A_pos, A_neg = codes[:, :3], codes[T:, 3:]
            p_pos = posteriors[:3]
            psi = resolve_psi(3, 2, params)
            work = (np.empty(A_pos.shape), np.empty(A_pos.shape))
            P = update_products(Xp, Xn, A_pos, A_neg, p_pos, psi, work)
            updates = [("target", 0, target_atom_update(P, 0, D.atoms))]
            for k in range(M):
                updates.append(
                    ("background", k, background_atom_update(P, D, k, gamma, old_targets))
                )
            for which, k, closed in updates:
                assert closed is not None
                start = (D.target_atoms if which == "target" else D.background_atoms)[:, k]
                numeric = coord_descent(start.copy(), which, k)
                gap = abs(obj_with(closed, which, k) - obj_with(numeric, which, k))
                worst = max(worst, gap)
        check(3, "closed-form atom updates vs numeric minimizer", worst <= 1e-6,
              f"worst objective gap {worst:.3e}")

    def test_c04_em_behavior(self):
        res = generate(SynthConfig(duration_s=90.0, hr_bpm=66.0, snr_db=8.0, seed=5))
        blocks = build_bags([candidate_peaks(res.recording)], [res.recording.gt_beat_times])
        fitres = fit(
            blocks.Xp,
            blocks.Xn,
            FumiParams(max_em_iters=50, tol=1e-300),
            seed=0,
            inner_objective_trace=True,
        )
        assert fitres.n_iterations == 50
        worst_rise = max(
            float(np.max(np.diff(vals))) for vals in fitres.inner_objective_trace
        )
        post_ok = bool(np.all(fitres.posteriors >= 0.0) and np.all(fitres.posteriors <= 1.0))
        norms = np.linalg.norm(fitres.dictionary.atoms, axis=0)
        norm_dev = float(np.max(np.abs(norms - 1.0)))
        check(
            4,
            "inner code steps never increase the objective",
            worst_rise <= 1e-9 and post_ok and norm_dev <= 1e-12,
            f"worst rise {worst_rise:.3e}, posteriors ok {post_ok}, norm dev {norm_dev:.3e}",
        )

    def test_c05_filter_spec(self):
        def tone_gain_db(freq):
            t = np.arange(int(600 * FS)) / FS
            x = np.sin(2.0 * np.pi * freq * t)
            y = bandpass_filter(x, FS)
            trim = int(60 * FS)
            amp = np.sqrt(2.0) * np.sqrt(np.mean(y[trim:-trim] ** 2))
            return 20.0 * np.log10(amp)

        g_low = tone_gain_db(0.4)
        g_high = tone_gain_db(10.0)
        dc_out = bandpass_filter(np.ones(int(600 * FS)), FS)
        trim = int(60 * FS)
        dc_rejection = -20.0 * np.log10(max(np.max(np.abs(dc_out[trim:-trim])), 1e-300))
        check(
            5,
            "band edges at -3 dB and DC rejection",
            abs(g_low + 3.0) <= 0.5 and abs(g_high + 3.0) <= 0.5 and dc_rejection >= 40.0,
            f"0.4 Hz {g_low:+.3f} dB, 10 Hz {g_high:+.3f} dB, DC rejection {dc_rejection:.1f} dB",
        )

    def test_c06_template_recovery(self, template_recovery):
        res, model, elapsed = template_recovery
        tpl = res.template
        best = 0.0
        for j in range(model.dictionary.n_target):
            atom = model.dictionary.target_atoms[:, j]
            for shift in range(-5, 6):
                c = abs(float(np.dot(atom, np.roll(tpl, shift))))
                c /= np.linalg.norm(atom) * np.linalg.norm(tpl)
                best = max(best, c)
        check(
            6,
            "planted template recovered by a target atom",
            best >= 0.90 and elapsed < 120.0,
            f"best |cos| {best:.4f}, elapsed {elapsed:.1f} s",
        )

    def test_c07_hr_accuracy(self, hrv_pipeline):
        err = hrv_pipeline["report"]["mae_bpm"]
        check(7, "held-out HR MAE within 1 bpm", err <= 1.0, f"MAE {err:.3f} bpm")

    def test_c08_bbi_accuracy(self, hrv_pipeline):
        err = hrv_pipeline["report"]["bbi_relative_error_pct"]
        check(8, "beat-to-beat interval error within 5%", err <= 5.0, f"BBI {err:.2f}%")

    def test_c09_dft_batch_mode(self, dft_pipeline):
        hr = dft_pipeline
        all_present = bool(np.all(~np.isnan(hr.bpm))) and hr.n_windows > 0
        max_dev = float(np.max(np.abs(hr.bpm - 72.0))) if all_present else np.inf
        check(
            9,
            "spectral estimate 72 +/- 1 in every window",
            all_present and max_dev <= 1.0,
            f"windows {hr.n_windows}, max deviation {max_dev:.2f} bpm",
        )

    def test_c10_vote_examples(self):
        params = DetectionParams(threshold=1.32, neighborhood=25, min_votes=2)

        def series(ch0, ch1):
            return ConfidenceSeries(
                fs=FS,
                n_samples=2000,
                peak_indices=[np.asarray(i, dtype=int) for i, _ in (ch0, ch1)],
                confidences=[np.asarray(c, dtype=float) for _, c in (ch0, ch1)],
            )

        two_supra = vote_beats(series(([100], [2.0]), ([110], [2.0])), params)
        one_supra = vote_beats(series(([100], [2.0]), ([110], [1.0])), params)
        none_supra = vote_beats(series(([100], [1.2]), ([110], [1.0])), params)
        ok = (
            [b[0] for b in two_supra] == [105]
            and one_supra == []
            and none_supra == []
        )
        check(10, "voting examples", ok,
              f"{two_supra!r} / {one_supra!r} / {none_supra!r}")

    def test_c11_evaluation_oracles(self):
        rng = np.random.default_rng(17)

        r = pearson_r(np.asarray([1.0, 2.0, 3.0]), np.asarray([2.0, 4.0, 5.0]))
        pearson_ok = abs(r - 0.9820) <= 1e-4

        x, y = rng.standard_normal(200), rng.standard_normal(200)
        r1 = pearson_r(x, y)
        r2 = pearson_r(3.7 * x + 11.0, 0.02 * y - 5.0)
        affine_ok = abs(r1 - r2) <= 1e-10

        stats = bland_altman(np.asarray([2.0, 1.0]), np.asarray([1.0, 2.0]))
        ba_exact_ok = (
            stats.bias == 0.0
            and abs(stats.sd - np.sqrt(2.0)) <= 1e-12
            and abs(stats.loa_high - 1.96 * np.sqrt(2.0)) <= 1e-12
            and abs(stats.loa_low + 1.96 * np.sqrt(2.0)) <= 1e-12
        )
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        s = bland_altman(a, b)
        diff = a - b
        ba_rand_ok = (
            abs(s.bias - np.mean(diff)) <= 1e-10
            and abs(s.sd - np.std(diff, ddof=1)) <= 1e-10
            and abs(s.loa_low - (np.mean(diff) - 1.96 * np.std(diff, ddof=1))) <= 1e-10
            and abs(s.loa_high - (np.mean(diff) + 1.96 * np.std(diff, ddof=1))) <= 1e-10
        )

        t = paired_t(np.asarray([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
        t_ok = abs(t - 3.873) <= 1e-3

        check(
            11,
            "statistics match direct-formula oracles",
            pearson_ok and affine_ok and ba_exact_ok and ba_rand_ok and t_ok,
            f"r={r:.6f}, affine gap {abs(r1 - r2):.2e}, t={t:.4f}",
        )

    def test_c12_baselines(self, hrv_pipeline):
        clean = generate(
            SynthConfig(
                duration_s=180.0,
                hr_bpm=60.0,
                snr_db=None,
                noise_sd=0.0,
                jitter_sd_samples=0.0,
                respiration_amp=0.0,
                seed=3,
            )
        )
        ranges_ok = True
        for estimator in (wppd_hr, en_hr):
            hr = estimator(clean.recording.channels[0], FS)
            vals = hr.bpm[~np.isnan(hr.bpm)]
            ranges_ok = ranges_ok and vals.size > 0 and bool(np.all(np.abs(vals - 60.0) <= 2.0))

        test_rec = hrv_pipeline["test"].recording
        gt_hr = hrv_pipeline["gt_hr"]
        dl_mae = hrv_pipeline["report"]["mae_bpm"]
        base_maes = {}
        for name, estimator in (("wppd", wppd_hr), ("en", en_hr)):
            ch = pick_best_channel(test_rec, estimator)
            base_maes[name] = evaluate(gt_hr, estimator(test_rec.channels[ch], FS))[0]["mae_bpm"]
        beats_ok = all(dl_mae <= m for m in base_maes.values())
        check(
            12,
            "baselines sane and never ahead of the learner",
            ranges_ok and beats_ok,
            f"DL MAE {dl_mae:.3f}, baselines {base_maes}",
        )

    def test_c13_determinism(self, tmp_path):
        cli = [sys.executable, "-m", "bcgbeat.cli"]
        cfg = tmp_path / "synth.conf"
        cfg.write_text("duration_s=90\nhr_bpm=66\nsnr_db=10\n")
        rec = tmp_path / "rec.csv"
        subprocess.run(
            cli + ["synth", "--config", str(cfg), "--seed", "7", "--out", str(rec)],
            check=True, capture_output=True,
        )
        outputs = []
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            subprocess.run(
                cli + ["train", str(rec), "--seed", "0", "--out", str(d / "model.csv")],
                check=True, capture_output=True,
            )
            subprocess.run(
                cli
                + [
                    "detect", str(rec),
                    "--dict", str(d / "model.csv"),
                    "--out", str(d / "det"),
                ],
                check=True, capture_output=True,
            )
            outputs.append(
                tuple(
                    (d / f).read_bytes()
                    for f in (
                        "model.csv",
                        "model.cov.csv",
                        "model.params",
                        "det.beats.csv",
                        "det.hr.csv",
                    )
                )
            )
        check(13, "train and detect byte-identical across runs",
              outputs[0] == outputs[1], "outputs differ")
