"""Heartbeat detection in ballistocardiogram recordings.

The package learns a discriminative dictionary from weakly labelled
heartbeat windows (DL-FUMI, an EM algorithm over multiple-instance bags),
then detects beats with a likelihood-ratio test plus cross-channel voting,
and turns the detections into sliding-window heart-rate estimates.
"""

from .baselines import en_hr, pick_best_channel, wppd_hr
from .detector import (
    BackgroundModel,
    ConfidenceSeries,
    DetectionParams,
    background_covariance,
    confidence_series,
    hr_from_beats,
    hr_from_confidence_dft,
    learn_detection_params_pooled,
    vote_beats,
)
from .dlfumi import (
    Dictionary,
    FitResult,
    FumiParams,
    gamma_matrix,
    e_step,
    fit,
    objective,
    resolve_psi,
    safe_step_length,
)
from .metrics import (
    AgreementStats,
    HrSeries,
    bbi_relative_error,
    bland_altman,
    greedy_match,
    mae,
    matched_interval_pairs,
    paired_t,
    pearson_r,
    per_window_errors,
)
from .signals import (
    Bag,
    ChannelInstances,
    Recording,
    bandpass_filter,
    build_bags,
    extract_instances,
    find_peaks,
    preprocess_recording,
)
from .synth import SynthConfig, SynthResult, generate, make_template

__version__ = "0.1.0"

__all__ = [
    "AgreementStats",
    "BackgroundModel",
    "Bag",
    "ChannelInstances",
    "ConfidenceSeries",
    "DetectionParams",
    "Dictionary",
    "FitResult",
    "FumiParams",
    "HrSeries",
    "Recording",
    "SynthConfig",
    "SynthResult",
    "gamma_matrix",
    "background_covariance",
    "bandpass_filter",
    "bbi_relative_error",
    "bland_altman",
    "build_bags",
    "confidence_series",
    "e_step",
    "en_hr",
    "extract_instances",
    "find_peaks",
    "fit",
    "generate",
    "greedy_match",
    "hr_from_beats",
    "hr_from_confidence_dft",
    "learn_detection_params_pooled",
    "mae",
    "make_template",
    "matched_interval_pairs",
    "objective",
    "paired_t",
    "pearson_r",
    "per_window_errors",
    "pick_best_channel",
    "preprocess_recording",
    "resolve_psi",
    "safe_step_length",
    "vote_beats",
    "wppd_hr",
]
