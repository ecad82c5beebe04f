"""Heralded entangled-photon-pair simulator and analysis toolkit."""

__version__ = "0.1.0"
