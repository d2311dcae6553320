"""Behavioural similarity toolkit for 6-DoF navigation over point clouds.

Computes an exact viewport-overlap ground truth between users, eight fast
proxy similarity metrics built from pose-level features, clique-based user
clusters per frame or time chunk, ROC threshold calibration, a regulator
ablation sweep, and evaluation against the ground truth; plus deterministic
synthetic scenarios and a CLI driving the whole pipeline.
"""

__version__ = "0.1.0"
