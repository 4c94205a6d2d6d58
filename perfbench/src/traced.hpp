/**
 * @file
 * The traced run: the same workload, executed point by point through
 * each layer's public functions, with spans and counts recorded around
 * those calls from the benchmark's side. It yields the per-layer
 * metrics, cross-checks every point against the untraced sweep, runs
 * the functional checks, and reports its own overhead.
 */

#pragma once

#include <string>
#include <vector>

#include "gate.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct TracedRun
{
    std::vector<Metric> metrics;     ///< every per-layer metric, in order
    std::vector<std::string> problems;  ///< failed checks; empty = correct
    GateCounts gate;                 ///< per-point gate on the sweep
    std::uint64_t digest = 0;        ///< model digest of the traced pass
    std::size_t spans = 0;           ///< spans written to the span file
};

/** Execute the traced run; spans go to span_file as JSON. */
TracedRun runTraced(const Workload &w, const std::string &span_file);

} // namespace perfbench
