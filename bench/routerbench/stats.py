"""Order statistics for window and latency samples.

The gated metrics are medians (see ``bench/README.md`` for the
measurements behind that choice); the floor — the 2nd-percentile
window — minimum and 90th percentile are reported per layer, so a
change that moves the distribution's edges without moving its middle
still shows."""

import math
import statistics

#: The floor is the 2nd-percentile sample: over the >= 500 windows of a
#: run, at least ten faster windows lie beyond it.
FLOOR_FRACTION = 0.02


def percentile(values, fraction):
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def floor(values):
    """The 2nd-percentile sample (the minimum below 50 samples)."""
    return percentile(values, FLOOR_FRACTION)


median = statistics.median


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median — the noise estimate the acceptance rule uses."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
