"""Behavioral-equivalence statistics for emulation run corpora.

Distances between runs (absolute difference for scalar metrics,
path-normalized dynamic time warping for time series) feed an
exceedance test: a cross-corpus distance counts against equivalence
when it exceeds the larger of the two within-corpus 95th percentiles.
Bootstrap resampling of whole runs yields confidence intervals on the
exceedance proportion.
"""
