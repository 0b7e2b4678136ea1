// Umbrella header of the obs/ layer: metrics (counter.h, histogram.h,
// registry.h), the footprint sampler (sampler.h) and the event tracer
// (trace.h), all behind the one switch in gate.h. Instrumented hot paths
// guard every metric touch with obs::enabled():
//
//   if (obs::enabled()) stats().commit_latency.record(t.nanos());
//
// The obs knobs (the Config knobs are listed in common/env.h):
//
//   MVCC_STATS       1 turns the layer on                       (default 0)
//   MVCC_TRACE       Chrome-trace output path, under MVCC_STATS=1 (default off)
//   MVCC_SAMPLE_MS   footprint sampler period under MVCC_STATS=1, ms; 0 = no
//                    sampler thread                             (default 0)
//   MVCC_SAMPLE_OUT  footprint CSV path            (default footprint.csv)
#pragma once

#include "mvcc/obs/counter.h"
#include "mvcc/obs/gate.h"
#include "mvcc/obs/histogram.h"
#include "mvcc/obs/registry.h"
#include "mvcc/obs/sampler.h"
#include "mvcc/obs/trace.h"
