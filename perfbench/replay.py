"""Run one deltoids subcommand with spans around the calls it makes.

    python3 perfbench/replay.py SPANS_OUT SUBCOMMAND [ARGS...]

Behaves like `python -m deltoids SUBCOMMAND [ARGS...]` (same stdout, same
exit code) and also writes the spans and counters of the run to SPANS_OUT
as JSON.  The spans come from wrapping, by name, the functions that
`deltoids.cli` calls, plus `max_matching` and `enumerate_subgroups` where
the library looks them up; no library source is changed.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402

# Names looked up at call time in each module; the span is named after the
# module that defines the function.
WRAPPED = {
    "deltoids.cli": (
        "load_instance", "render_json", "build_deltoid", "chowla_defect", "deficiency",
        "deficiency_by_subsets", "partial_matching_with_defect", "verify_matching",
        "deficiency_by_subgroups", "find_witness", "verify_witness",
        "construct_deficient_pair", "rho", "lambda_", "rho_by_feasibility",
        "lambda_by_feasibility", "partition_left", "partition_right", "validate_partition",
    ),
    "deltoids.matching": ("max_matching",),
    "deltoids.transform": ("enumerate_subgroups",),
    "deltoids.structure": ("enumerate_subgroups",),
}


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder(traced=True)
    import deltoids.cli

    rec.spans.append([None, 0, None, "cli.import", START, time.perf_counter()])
    for module_name, names in WRAPPED.items():
        module = sys.modules[module_name]
        for name in names:
            fn = getattr(module, name)
            span = f"{fn.__module__.removeprefix('deltoids.')}.{fn.__name__}"
            setattr(module, name, rec.wrap(fn, span))
    try:
        return deltoids.cli.main(argv)
    finally:
        sys.stdout.flush()
        spans = [s[1:] for s in rec.spans]
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counts": rec.counts}, handle)


if __name__ == "__main__":
    raise SystemExit(main())
