"""Heartbeat detection in ballistocardiogram recordings.

The package learns a discriminative dictionary from weakly labelled
heartbeat windows (DL-FUMI, an EM algorithm over multiple-instance bags),
then detects beats with a likelihood-ratio test plus cross-channel voting,
and turns the detections into sliding-window heart-rate estimates.
"""

__version__ = "0.1.0"
