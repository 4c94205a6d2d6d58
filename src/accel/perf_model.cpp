#include "accel/perf_model.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "accel/gcn_accel.hpp"
#include "accel/policy.hpp"
#include "common/log.hpp"
#include "kernels/spgemm.hpp"

namespace awb {

namespace {

/** Online greedy sharing leaves a few percent on the table compared with
 *  the optimal water-filling bound; calibrated against the cycle engine. */
constexpr double kSharingInefficiency = 1.15;

int
log2i(int v)
{
    int s = 0;
    while ((1 << s) < v) ++s;
    return s;
}

/**
 * Feasibility check for balancedDrain: can every PE's work be served
 * within `hops` positions with per-PE capacity t? Greedy left-to-right
 * serving the earliest-expiring work first (exact for interval-constrained
 * transportation on a line).
 */
bool
feasible(const std::vector<Count> &w, int hops, Cycle t,
         std::vector<Count> *served)
{
    const int P = static_cast<int>(w.size());
    if (served) served->assign(static_cast<std::size_t>(P), 0);
    std::deque<std::pair<int, Count>> pending;  // (source PE, remaining)
    int next_src = 0;
    for (int s = 0; s < P; ++s) {
        while (next_src < P && next_src <= s + hops) {
            if (w[static_cast<std::size_t>(next_src)] > 0)
                pending.emplace_back(
                    next_src, w[static_cast<std::size_t>(next_src)]);
            ++next_src;
        }
        // Work whose window has closed cannot be served any more.
        if (!pending.empty() && pending.front().first < s - hops)
            return false;
        Count cap = t;
        while (cap > 0 && !pending.empty()) {
            auto &[src, rem] = pending.front();
            Count take = std::min(cap, rem);
            rem -= take;
            cap -= take;
            if (served) (*served)[static_cast<std::size_t>(s)] += take;
            if (rem == 0) pending.pop_front();
        }
    }
    return pending.empty();
}

} // namespace

PerfModel::PerfModel(const AccelConfig &cfg) : cfg_(cfg) {}

Cycle
PerfModel::balancedDrain(const std::vector<Count> &pe_work, int hops,
                         std::vector<Count> *served)
{
    const int P = static_cast<int>(pe_work.size());
    Count total = std::accumulate(pe_work.begin(), pe_work.end(), Count(0));
    Cycle lo = (total + P - 1) / P;
    Cycle hi = *std::max_element(pe_work.begin(), pe_work.end());
    if (hops <= 0 || lo >= hi) {
        if (served) *served = pe_work;
        return hi;
    }
    while (lo < hi) {
        Cycle mid = lo + (hi - lo) / 2;
        if (feasible(pe_work, hops, mid, nullptr)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if (served) feasible(pe_work, hops, lo, served);
    return lo;
}

PerfSpmmResult
PerfModel::runSpmm(const std::vector<Count> &row_work, Index rounds,
                   RowPartition &partition, Index inner_dim) const
{
    const int P = cfg_.numPes;
    PerfSpmmResult res;
    res.rounds = rounds;
    res.roundCycles.reserve(static_cast<std::size_t>(rounds));

    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg_, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    const Cycle overhead = cfg_.macLatency + log2i(P) + 2;

    // Off-chip memory model (DESIGN.md §8): same accounting and
    // roofline composition as the cycle engine, at round granularity.
    const MemoryModel mem(findPlatform(cfg_.platform),
                          policyClockMhz(cfg_));
    const Count total_nnz =
        std::accumulate(row_work.begin(), row_work.end(), Count(0));
    const MemoryTraffic steady_traffic = mem.roundTraffic(
        total_nnz, inner_dim > 0 ? inner_dim : partition.rows(),
        partition.rows());
    Count pending_migration_bytes = 0;
    MigrationLedger ledger(partition);

    // A round's compute outcome is a function of (row map, row work) and
    // row work is fixed for the whole SPMM, so it is recomputed only when
    // the map's stamp moved: every round of a static design and every
    // round after a policy converged reuses the last one.
    std::uint64_t outcome_version = 0;  // stamps are never 0
    std::vector<Count> pe_work;
    std::vector<Count> served;
    Count total = 0;
    Cycle drain = 0;
    Cycle inject = 0;
    for (Index k = 0; k < rounds; ++k) {
        if (partition.version() != outcome_version) {
            outcome_version = partition.version();
            pe_work = partition.workload(row_work);
            total = std::accumulate(pe_work.begin(), pe_work.end(),
                                    Count(0));
            const Cycle no_share =
                *std::max_element(pe_work.begin(), pe_work.end());
            drain = balancedDrain(pe_work, cfg_.sharingHops, &served);
            if (cfg_.sharingHops > 0) {
                // Online greedy sharing pays an inefficiency over the
                // optimal water-filling, but never loses to not sharing
                // at all.
                drain = std::min(
                    no_share, static_cast<Cycle>(static_cast<double>(drain) *
                                                 kSharingInefficiency));
            }
            inject = (total + P - 1) / P;
        }
        Cycle round_cycles = std::max(drain, inject) + overhead;

        // Roofline composition with the bandwidth-bound floor; rows the
        // policy moved after round k-1 bill their migration here.
        MemoryTraffic round_traffic = steady_traffic;
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        res.traffic += round_traffic;
        const Cycle bw_floor = mem.floorCycles(round_traffic.total());
        res.memoryCycles += bw_floor;
        if (bw_floor > round_cycles) {
            ++res.bwBoundRounds;
            round_cycles = bw_floor;
        }

        res.roundCycles.push_back(round_cycles);
        res.cycles += round_cycles;
        res.tasks += total;
        res.idealCycles += inject;

        // Peak queue depth: a PE's arrivals spread over the injection
        // window while it drains at one task per cycle.
        for (int p = 0; p < P; ++p) {
            res.perPeTasks[static_cast<std::size_t>(p)] +=
                served[static_cast<std::size_t>(p)];
            Count backlog = served[static_cast<std::size_t>(p)] - inject;
            if (backlog > 0) {
                res.peakQueueDepth = std::max(
                    res.peakQueueDepth, static_cast<std::size_t>(backlog));
            }
        }

        if (k + 1 < rounds && rebalance->wantsObservations()) {
            // PESM ranks by home-attributed load (see SpmmEngine): the
            // switchable quantity is row ownership, not where sharing
            // happened to execute the tasks. The policy observes every
            // round, reused or not: it advances its own state (gap
            // history, convergence counters) even when it moves nothing.
            RoundObservation obs;
            obs.peWork = pe_work;
            obs.drainCycle.assign(served.begin(), served.end());
            rebalance->observeAndAdjust(obs, row_work, partition);
            pending_migration_bytes =
                ledger.bill(mem, partition, row_work);
        }
    }

    res.peakQueueDepth = std::max<std::size_t>(
        res.peakQueueDepth,
        static_cast<std::size_t>(cfg_.numQueuesPerPe));
    res.syncCycles = std::max<Cycle>(0, res.cycles - res.idealCycles);
    res.utilization = res.cycles > 0
        ? static_cast<double>(res.tasks) /
          (static_cast<double>(P) * static_cast<double>(res.cycles))
        : 0.0;
    res.rowsSwitched = rebalance->totalRowsMoved();
    res.convergedRound = rebalance->convergedRound();
    return res;
}

PerfSpmmResult
PerfModel::runSpgemm(const CscMatrix &a, const CscMatrix &b,
                     RowPartition &partition) const
{
    if (a.cols() != b.rows())
        fatal("PerfModel::runSpgemm: inner dimensions differ");
    if (partition.rows() != a.rows())
        fatal("PerfModel::runSpgemm: partition rows != operand rows");

    const int P = cfg_.numPes;
    const Index K = b.cols();
    PerfSpmmResult res;
    res.rounds = K;
    res.roundCycles.reserve(static_cast<std::size_t>(K));

    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg_, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    const Cycle overhead = cfg_.macLatency + log2i(P) + 2;

    const MemoryModel mem(findPlatform(cfg_.platform),
                          policyClockMhz(cfg_));
    // Migration billing moves whole rows of A between banks, the same
    // quantity the cycle engine bills (not the round-masked work).
    const std::vector<Count> row_work = a.rowNnz();
    const std::vector<Count> out_nnz = kernels::spgemmColumnNnz(a, b);
    Count pending_migration_bytes = 0;
    MigrationLedger ledger(partition);

    std::vector<Count> row_work_k(static_cast<std::size_t>(a.rows()));
    std::vector<Count> served;
    for (Index k = 0; k < K; ++k) {
        // Round-k per-row work: B column k's non-zeros each expand the
        // matching A column, so only rows reachable through those
        // columns carry tasks this round.
        std::fill(row_work_k.begin(), row_work_k.end(), Count(0));
        const Count b_begin = b.colPtr()[static_cast<std::size_t>(k)];
        const Count b_end = b.colPtr()[static_cast<std::size_t>(k) + 1];
        for (Count p = b_begin; p < b_end; ++p) {
            const Index j = b.rowId()[static_cast<std::size_t>(p)];
            for (Count q = a.colPtr()[static_cast<std::size_t>(j)];
                 q < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++q) {
                ++row_work_k[static_cast<std::size_t>(
                    a.rowId()[static_cast<std::size_t>(q)])];
            }
        }

        std::vector<Count> pe_work = partition.workload(row_work_k);
        Count total = std::accumulate(pe_work.begin(), pe_work.end(),
                                      Count(0));
        Cycle no_share =
            *std::max_element(pe_work.begin(), pe_work.end());
        Cycle drain = balancedDrain(pe_work, cfg_.sharingHops, &served);
        if (cfg_.sharingHops > 0) {
            drain = std::min(no_share,
                             static_cast<Cycle>(static_cast<double>(drain) *
                                                kSharingInefficiency));
        }
        Cycle inject = (total + P - 1) / P;
        Cycle round_cycles = std::max(drain, inject) + overhead;

        MemoryTraffic round_traffic = mem.spgemmRoundTraffic(
            total, b_end - b_begin,
            out_nnz[static_cast<std::size_t>(k)]);
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        res.traffic += round_traffic;
        const Cycle bw_floor = mem.floorCycles(round_traffic.total());
        res.memoryCycles += bw_floor;
        if (bw_floor > round_cycles) {
            ++res.bwBoundRounds;
            round_cycles = bw_floor;
        }

        res.roundCycles.push_back(round_cycles);
        res.cycles += round_cycles;
        res.tasks += total;
        res.idealCycles += inject;

        for (int p = 0; p < P; ++p) {
            res.perPeTasks[static_cast<std::size_t>(p)] +=
                served[static_cast<std::size_t>(p)];
            Count backlog = served[static_cast<std::size_t>(p)] - inject;
            if (backlog > 0) {
                res.peakQueueDepth = std::max(
                    res.peakQueueDepth, static_cast<std::size_t>(backlog));
            }
        }

        // Observe after every round, the last included, mirroring
        // SpmmEngine::executeSpgemm (frontier kernels chain 1-round
        // SpGEMMs over a carried partition).
        if (rebalance->wantsObservations()) {
            RoundObservation obs;
            obs.peWork = std::move(pe_work);
            obs.drainCycle.assign(served.begin(), served.end());
            rebalance->observeAndAdjust(obs, row_work, partition);
            const Count mig = ledger.bill(mem, partition, row_work);
            if (k + 1 < K) {
                pending_migration_bytes = mig;
            } else {
                res.traffic.migrationBytes += mig;
            }
        }
    }

    res.peakQueueDepth = std::max<std::size_t>(
        res.peakQueueDepth,
        static_cast<std::size_t>(cfg_.numQueuesPerPe));
    res.syncCycles = std::max<Cycle>(0, res.cycles - res.idealCycles);
    res.utilization = res.cycles > 0
        ? static_cast<double>(res.tasks) /
          (static_cast<double>(P) * static_cast<double>(res.cycles))
        : 0.0;
    res.rowsSwitched = rebalance->totalRowsMoved();
    res.convergedRound = rebalance->convergedRound();
    return res;
}

PerfGcnResult
PerfModel::runGcn(const WorkloadProfile &profile) const
{
    const Index n = profile.spec.nodes;
    PerfGcnResult res;
    std::unique_ptr<PartitionPolicy> partitioner =
        makePartitionPolicy(cfg_);
    RowPartition part_a = partitioner->build(n, profile.aRowNnz, cfg_);

    struct LayerIn
    {
        const std::vector<Count> *xRow;
        Index rounds;
        Index innerDim;  ///< feature width of X (streamed W column)
    };
    const LayerIn layers[2] = {
        {&profile.x1RowNnz, profile.spec.f2, profile.spec.f1},
        {&profile.x2RowNnz, profile.spec.f3, profile.spec.f2},
    };

    auto fold = [&res](const PerfSpmmResult &s) {
        res.traffic += s.traffic;
        res.memoryCycles += s.memoryCycles;
        res.bwBoundRounds += s.bwBoundRounds;
    };
    for (const LayerIn &li : layers) {
        PerfGcnResult::Layer layer;
        RowPartition part_x = partitioner->build(n, *li.xRow, cfg_);
        layer.xw = runSpmm(*li.xRow, li.rounds, part_x, li.innerDim);
        layer.ax = runSpmm(profile.aRowNnz, li.rounds, part_a, n);
        layer.pipelinedCycles =
            pipelineCycles(layer.xw.roundCycles, layer.ax.roundCycles);
        res.totalCycles += layer.pipelinedCycles;
        res.totalCyclesSerial += layer.xw.cycles + layer.ax.cycles;
        res.totalTasks += layer.xw.tasks + layer.ax.tasks;
        fold(layer.xw);
        fold(layer.ax);
        res.layers.push_back(std::move(layer));
    }

    res.utilization = res.totalCyclesSerial > 0
        ? static_cast<double>(res.totalTasks) /
          (static_cast<double>(cfg_.numPes) *
           static_cast<double>(res.totalCyclesSerial))
        : 0.0;
    return res;
}

} // namespace awb
