"""Pure helpers of the end-to-end benchmark: statistics, failure accounting,
fingerprint comparison, attribution arithmetic and the result line.

Nothing here starts a process or touches a file, so test_perfbench.py can
check every rule the benchmark applies to its samples.
"""

import json
import math
import statistics


def percentile(values, q):
    """The q-th percentile (0..100) of `values`, interpolating linearly
    between the two closest ranks (numpy's default rule): percentile(v, 50)
    is the median, percentile(v, 0) the minimum, percentile(v, 100) the
    maximum."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def windows(at_ms, span_ms, width_ms=1000.0):
    """Indexes of the samples that start in each whole window of width_ms
    of a run that lasted span_ms; `at_ms` holds each sample's start time
    from the start of the run. The last, partial window is dropped, and a
    run shorter than one window is a single window."""
    whole = int(span_ms // width_ms)
    if whole < 1:
        return [list(range(len(at_ms)))]
    groups = [[] for _ in range(whole)]
    for i, t in enumerate(at_ms):
        if t < whole * width_ms:
            groups[int(t // width_ms)].append(i)
    return groups


def quartile_spread(values):
    """(Q3 - Q1) / median with Python's statistics.quantiles(n=4): the rule
    a run-to-run steadiness check applies to one metric's per-run values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


class Tally:
    """Operations attempted and failed. An operation fails when any of its
    checks fails; each operation counts once however many checks fail, and
    every failed check is kept by name for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, what, **checks):
        """Counts one operation named `what`; `checks` maps a check name to
        whether it held."""
        self.attempted += 1
        bad = [name for name, held in checks.items() if not held]
        if bad:
            self.failed += 1
            self.problems.append(f"{what}: {', '.join(bad)}")

    def ops(self, what, attempted, failed):
        """Counts `attempted` operations of which `failed` failed, as
        counted by a helper process."""
        if attempted < 0 or not 0 <= failed <= attempted:
            raise ValueError(f"{what}: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


def fingerprint_mismatches(reference, candidate):
    """Keys whose values differ between two fingerprints (dicts of
    deterministic outputs), including keys present in only one, sorted."""
    keys = set(reference) | set(candidate)
    missing = object()
    return sorted(k for k in keys
                  if reference.get(k, missing) != candidate.get(k, missing))


def unattributed_ms(cli_wall_ms, stage_ms):
    """Process wall time of the CLI that no replayed stage accounts for:
    exec, library start-up, the result table and exit. Negative when the
    in-process stages together ran longer than the whole CLI process."""
    return cli_wall_ms - sum(stage_ms.values())


def build_ms(fleet_wall_ms, cached_fleet_wall_ms):
    """Wall time a batch fleet spends building instances: the fleet
    without a snapshot cache minus the same fleet whose instances are
    mapped from a pre-filled cache."""
    return fleet_wall_ms - cached_fleet_wall_ms


def ratio(numerator, denominator):
    """numerator / denominator, 0.0 when the denominator is not positive."""
    return numerator / denominator if denominator > 0 else 0.0


def check_metric_names(metrics, expected):
    """Raises ValueError unless `metrics` holds exactly the names in
    `expected` (the list BENCHMARK.json declares for this mode)."""
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        raise ValueError(f"metric set differs from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")


def result_line(tally, metrics, units):
    """The benchmark's final stdout line. `metrics` maps name -> value and
    `units` name -> unit; values are kept with all their digits."""
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    })
