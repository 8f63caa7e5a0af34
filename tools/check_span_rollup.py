#!/usr/bin/env python3
"""Check that a run manifest's span rollup adds up.

Every span_rollup row must have 0 <= self_us <= total_us: a span's self time
is its inclusive time minus that of the spans nested directly inside it, so
a negative or oversized figure means spans were charged to the wrong parent.
With --unbuffered the manifest's metrics must also report
obs.trace_events_buffered == 0, i.e. the run kept no trace event buffer.

usage: tools/check_span_rollup.py MANIFEST [--unbuffered]
"""
import json
import sys


def main(argv):
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["--unbuffered"]):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        manifest = json.load(f)
    rows = manifest["span_rollup"]
    errors = ["bad row: %s %s self_us=%s total_us=%s"
              % (r["timeline"], r["name"], r["self_us"], r["total_us"])
              for r in rows if not 0 <= r["self_us"] <= r["total_us"]]
    if not rows:
        errors.append("empty span_rollup")
    if argv[2:]:
        buffered = manifest["metrics"]["gauges"].get("obs.trace_events_buffered")
        if buffered != 0:
            errors.append("obs.trace_events_buffered = %r, want 0" % buffered)
    for e in errors:
        print(e)
    print("%d span_rollup rows, %d errors" % (len(rows), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
