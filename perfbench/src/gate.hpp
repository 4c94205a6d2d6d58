/**
 * @file
 * What the benchmark checks on every sweep outcome: the per-point
 * correctness gate that feeds fail_ratio, the model-field digest that
 * must repeat across runs of one seed, and the two fidelity figures
 * (paper_util_err, model_cycle_gap).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace perfbench {

/** Per-point gate totals. A point fails when it is an error row or
 *  breaks a physical invariant; one point may break several. */
struct GateCounts
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t errorRows = 0;         ///< ok == false
    std::size_t utilization = 0;       ///< not 0 < utilization <= 1
    std::size_t cyclesBelowIdeal = 0;  ///< cycles < reported ideal cycles
};

GateCounts gate(const std::vector<awb::driver::SweepOutcome> &outcomes);

/** "42/378 failed: error 0, utilization 42, cycles<ideal 42" */
std::string describe(const GateCounts &g);

/**
 * 64-bit FNV-1a digest of every model field of every outcome, with the
 * point it belongs to. Host measurements (wallMs) and the simulator's
 * own bookkeeping (roundsSimulated, which a replay optimisation may
 * legitimately change) are excluded.
 */
std::uint64_t modelDigest(
    const std::vector<awb::driver::SweepOutcome> &outcomes);

std::string hex(std::uint64_t v);

/** True when every field of a and b matches bit for bit, wallMs
 *  excepted; roundsSimulated is compared too. */
bool sameResult(const awb::exec::RunResult &a,
                const awb::exec::RunResult &b);

/** A fidelity figure: per-point errors summarized, and their count. */
struct Fidelity
{
    double median = 0.0;
    double mean = 0.0;
    std::size_t count = 0;
};

/** |utilization - paper Fig. 14 utilization| over the outcomes that
 *  are Fig. 14 points (model, 512 PEs, unconstrained, one chip,
 *  designs base..d): 25 per seed. */
Fidelity paperUtilErr(const std::vector<awb::driver::SweepOutcome> &outcomes);

/** |model cycles / cycle-engine cycles - 1| over the outcomes that
 *  form (cycle, model) pairs of one configuration and seed. */
Fidelity modelCycleGap(
    const std::vector<awb::driver::SweepOutcome> &outcomes);

/** Feed perturbed outcomes through gate() and modelDigest() and check
 *  each perturbation is caught; returns the problems found (empty when
 *  every perturbation was caught). */
std::vector<std::string> selfTest();

} // namespace perfbench
