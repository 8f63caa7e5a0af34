// Umbrella header for the observability layer: structured logging
// (SIMPROF_LOG), the metrics registry (metrics()), Chrome-trace spans
// (ObsSpan, VirtualSpan) and their span rollup, the run ledger + regression
// report (ledger(), diff_manifests), the heartbeat/flight recorder and the run
// session that ties them into one lifecycle (RunSession). See the
// individual headers for contracts; the shared one: observability never
// reads RNG state and never feeds back into computation, so enabling any of
// it cannot perturb results.
#pragma once

#include "obs/heartbeat.h"  // IWYU pragma: export
#include "obs/log.h"        // IWYU pragma: export
#include "obs/metrics.h"    // IWYU pragma: export
#include "obs/report.h"     // IWYU pragma: export
#include "obs/session.h"    // IWYU pragma: export
#include "obs/trace.h"      // IWYU pragma: export
