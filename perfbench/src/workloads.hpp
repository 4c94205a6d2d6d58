/**
 * @file
 * The benchmark's two named workloads. Each is a fixed grid of sweep
 * points built from one or more SweepOptions slices, run as one
 * closed-loop pass over a pool of kWorkers threads (a worker takes the
 * next point when its previous one finishes). NOTES.md records why
 * each workload exists and which layer it stresses.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace perfbench {

using awb::driver::SweepOptions;
using awb::driver::SweepOutcome;
using awb::driver::SweepPoint;

/** Sweep workers. kWorkers x kIntraThreads stays within a 4-core
 *  budget; the library's intra-thread default of 0 means "every
 *  hardware thread" and would oversubscribe. */
inline constexpr int kWorkers = 4;
inline constexpr int kIntraThreads = 1;

struct Workload
{
    std::string name;
    /** Grid slices; each is serialized by its own sweepToJson call. */
    std::vector<SweepOptions> grids;
    /** Every slice's points, concatenated and re-indexed. */
    std::vector<SweepPoint> points;
    /** points[i] belongs to grids[gridOf[i]]. */
    std::vector<std::size_t> gridOf;
};

const std::vector<std::string> &workloadNames();

/** fatal()s on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** The grid whose points define paper_util_err (the 25 Fig. 14
 *  points) and the one whose pairs define model_cycle_gap; workloads
 *  that do not contain them run them once after the timed loop. */
Workload fig14Reference(std::uint64_t seed);
Workload cyclePairReference(std::uint64_t seed);

/** runSweep over every point of the workload with kWorkers workers. */
std::vector<SweepOutcome> runWorkload(const Workload &w);

/** sweepToJson of every slice, dumped as awbsim writes it; returns the
 *  total serialized size in bytes. */
std::size_t serializeWorkload(const Workload &w,
                              const std::vector<SweepOutcome> &outcomes);

/** One synthesized input: what the WorkloadCache must hold before the
 *  timed loop so that no point synthesizes. */
struct Input
{
    enum class Kind { Profile, Dataset, Adjacency };
    Kind kind = Kind::Profile;
    std::string dataset;
    std::uint64_t seed = 0;
    double scale = 1.0;
};

/** Distinct inputs the workload's points load, in first-use order,
 *  using the loader each mode needs. */
std::vector<Input> requiredInputs(const Workload &w);

/** Fetch one input through the process-wide WorkloadCache. */
void buildInput(const Input &in);

/** Empty both process-wide caches, as a fresh awbsim process has them. */
void clearCaches();

/** Run fn(i) for i in [0, n) on a closed-loop pool of kWorkers threads;
 *  rethrows the first exception after every worker has joined. */
void forEachPoint(std::size_t n, const std::function<void(std::size_t)> &fn);

} // namespace perfbench
