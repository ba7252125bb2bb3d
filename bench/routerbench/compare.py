"""Noise-aware comparison of result files against the bounds that
``BENCHMARK.json`` fixes per metric.

A result file is what ``bench/run.py --out`` writes: one set of runs
(every workload once) or, from ``--repeat``, a list of sets.  Every
ratio is printed with its base."""

import json

from . import stats


def load_sets(path):
    with open(path) as handle:
        data = json.load(handle)
    return data if isinstance(data, list) else [data]


def samples(sets):
    """``(workload, metric) -> [value per set]`` in first-seen order."""
    table = {}
    for one in sets:
        for workload, result in one["workloads"].items():
            for metric, value in result["metrics"].items():
                table.setdefault((workload, metric), []).append(value["value"])
    return table


def spread(values):
    """Quartile spread as a share of the median; with fewer than four
    values, the whole range."""
    if len(values) >= 4:
        return stats.quartile_spread(values)
    middle = stats.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def worse_by(base, new, better):
    """How much worse ``new`` is than ``base``, as a share of base."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(base_values, new_values, better, bound):
    """better / within bound / worse / unresolved for one metric of one
    workload.  Where either side's own spread exceeds the bound the
    metric is unresolved, unless every run of one side beats every run
    of the other."""
    base, new = stats.median(base_values), stats.median(new_values)
    change = worse_by(base, new, better)
    noisy = max(spread(base_values), spread(new_values)) > bound
    if noisy:
        lower, higher = (new_values, base_values) if better == "lower" else (base_values,
                                                                             new_values)
        if max(lower) < min(higher):
            return "better", change
        if max(higher) < min(lower) and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within bound", change


def compare_files(benchmark, base_path, new_path):
    """One row per workload x metric; exit status 1 when any row is
    worse.  Two untraced files are judged under the end-to-end bounds.
    Two traced files have no bounds: their rows say whether a layer
    metric repeated exactly (counts and modelled values must) or by
    what ratio it moved."""
    base_sets, new_sets = load_sets(base_path), load_sets(new_path)
    traced = bool(base_sets[0].get("trace"))
    if traced != bool(new_sets[0].get("trace")):
        raise SystemExit("one file is traced and the other is not")
    base, new = samples(base_sets), samples(new_sets)
    status = 0
    print("%-18s %-40s %14s %14s %9s  %s"
          % ("workload", "metric", "base", "new", "new/base", "verdict"))
    for entry in benchmark["workloads"]:
        for metric in benchmark["per_layer" if traced else "end_to_end"]:
            key = (entry["name"], metric["name"])
            if key not in base or key not in new:
                print("%-18s %-40s missing from one file" % key)
                status = 1
                continue
            base_median, new_median = stats.median(base[key]), stats.median(new[key])
            if traced:
                word = "same" if base[key] == new[key] else "moved"
            else:
                word, _change = verdict(base[key], new[key], metric["better"], metric["bound"])
                word += " (bound %.0f%%)" % (metric["bound"] * 100)
            print("%-18s %-40s %14.4f %14.4f %9.4f  %s, base %.4f %s"
                  % (key[0], key[1], base_median, new_median,
                     new_median / base_median if base_median else 0.0,
                     word, base_median, metric["unit"]))
            if word.startswith("worse"):
                status = 1
    return status


def agreement(benchmark, sets):
    """Do K sets of runs of the same code agree?  Prints each metric's
    spread against its bound; exit status 1 when one exceeds it
    (``setup_s`` is shown but exempt, as its bound applies to the
    median of many set-ups, not to their spread)."""
    table = samples(sets)
    status = 0
    print("%-18s %-20s %14s %8s %7s" % ("workload", "metric", "median", "spread", "bound"))
    for entry in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            values = table[(entry["name"], metric["name"])]
            share = spread(values)
            over = share > metric["bound"]
            exempt = metric["name"] == "setup_s"
            print("%-18s %-20s %14.4f %7.1f%% %6.0f%%%s"
                  % (entry["name"], metric["name"], stats.median(values), share * 100,
                     metric["bound"] * 100,
                     "  OVER (exempt)" if over and exempt else "  OVER" if over else ""))
            if over and not exempt:
                status = 1
    failed = sum(result["failed"] for one in sets for result in one["workloads"].values())
    if failed:
        print("%d operations failed" % failed)
        status = 1
    return status
