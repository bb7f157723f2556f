/**
 * @file
 * Layer probes for the traced run.  The probe rebuilds the workload's
 * world from the library's public constructors, simulates it to half
 * its horizon with Simulation::runUntil, and then times each layer's
 * public hot-path function over many calls on that mid-run state.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace polcabench {

/** Named probe values, in emission order. */
using ProbeValues = std::vector<std::pair<std::string, double>>;

ProbeValues runProbes(const BenchOptions &bench, SpanRecorder *spans);

} // namespace polcabench
