/**
 * @file
 * Tests for the round-level performance model: the water-filling bound,
 * round-outcome reuse against a recompute-every-round reference,
 * cross-validation against the cycle-accurate engine (the two fidelities
 * must agree on cycles and utilization within tolerance), full-scale
 * tractability, and the area/energy/platform models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "gcn/ops_count.hpp"
#include "graph/datasets.hpp"
#include "model/area_model.hpp"
#include "model/energy_model.hpp"
#include "model/platforms.hpp"
#include "sparse/convert.hpp"

using namespace awb;

TEST(BalancedDrain, NoSharingIsMax)
{
    std::vector<Count> w = {10, 2, 2, 2};
    EXPECT_EQ(PerfModel::balancedDrain(w, 0), 10);
}

TEST(BalancedDrain, FullSharingReachesMean)
{
    std::vector<Count> w = {16, 0, 0, 0};
    // hops >= P-1: work can spread everywhere -> ceil(16/4) = 4.
    EXPECT_EQ(PerfModel::balancedDrain(w, 3), 4);
}

TEST(BalancedDrain, OneHopSpreadsToNeighbours)
{
    std::vector<Count> w = {12, 0, 0, 0};
    // PE0's work reaches PEs {0,1}: drain 6.
    EXPECT_EQ(PerfModel::balancedDrain(w, 1), 6);
    // Middle hotspot reaches three PEs: drain 4.
    std::vector<Count> w2 = {0, 12, 0, 0};
    EXPECT_EQ(PerfModel::balancedDrain(w2, 1), 4);
}

TEST(BalancedDrain, ClusterNeedsMoreHops)
{
    // Two adjacent hot PEs: 1 hop reaches 4 PEs -> 24/4 = 6;
    // 2 hops reach 6 PEs -> 4.
    std::vector<Count> w = {0, 0, 12, 12, 0, 0, 0, 0};
    EXPECT_EQ(PerfModel::balancedDrain(w, 1), 6);
    EXPECT_EQ(PerfModel::balancedDrain(w, 2), 4);
}

TEST(BalancedDrain, ServedConservesWork)
{
    std::vector<Count> w = {9, 1, 7, 0, 3, 3, 0, 5};
    std::vector<Count> served;
    Cycle t = PerfModel::balancedDrain(w, 1, &served);
    Count total = 0;
    for (Count s : served) {
        total += s;
        EXPECT_LE(s, t);
    }
    EXPECT_EQ(total, 28);
}

namespace {

/**
 * The round loop of PerfModel::runSpmm as it was before rounds were
 * reused: every round recomputes the per-PE work, drain and injection
 * from the live map, and migration is billed by diffing an owner
 * snapshot taken around each observation. Kept here only as the
 * reference the reusing model must match field for field.
 */
PerfSpmmResult
naiveRunSpmm(const AccelConfig &cfg, const std::vector<Count> &row_work,
             Index rounds, RowPartition &partition, Index inner_dim)
{
    const int P = cfg.numPes;
    PerfSpmmResult res;
    res.rounds = rounds;
    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    int log2p = 0;
    while ((1 << log2p) < P) ++log2p;
    const Cycle overhead = cfg.macLatency + log2p + 2;
    const MemoryModel mem(findPlatform(cfg.platform), policyClockMhz(cfg));
    const Count total_nnz =
        std::accumulate(row_work.begin(), row_work.end(), Count(0));
    const MemoryTraffic steady = mem.roundTraffic(
        total_nnz, inner_dim > 0 ? inner_dim : partition.rows(),
        partition.rows());
    Count pending = 0;
    std::vector<Count> served;
    for (Index k = 0; k < rounds; ++k) {
        std::vector<Count> pe_work = partition.workload(row_work);
        const Count total =
            std::accumulate(pe_work.begin(), pe_work.end(), Count(0));
        const Cycle no_share =
            *std::max_element(pe_work.begin(), pe_work.end());
        Cycle drain =
            PerfModel::balancedDrain(pe_work, cfg.sharingHops, &served);
        if (cfg.sharingHops > 0)
            drain = std::min(no_share, static_cast<Cycle>(
                                           static_cast<double>(drain) * 1.15));
        const Cycle inject = (total + P - 1) / P;
        Cycle round_cycles = std::max(drain, inject) + overhead;
        MemoryTraffic traffic = steady;
        traffic.migrationBytes = pending;
        pending = 0;
        res.traffic += traffic;
        const Cycle floor = mem.floorCycles(traffic.total());
        res.memoryCycles += floor;
        if (floor > round_cycles) {
            ++res.bwBoundRounds;
            round_cycles = floor;
        }
        res.roundCycles.push_back(round_cycles);
        res.cycles += round_cycles;
        res.tasks += total;
        res.idealCycles += inject;
        for (int p = 0; p < P; ++p) {
            res.perPeTasks[static_cast<std::size_t>(p)] +=
                served[static_cast<std::size_t>(p)];
            const Count backlog = served[static_cast<std::size_t>(p)] - inject;
            if (backlog > 0)
                res.peakQueueDepth = std::max(
                    res.peakQueueDepth, static_cast<std::size_t>(backlog));
        }
        if (k + 1 < rounds && rebalance->wantsObservations()) {
            RoundObservation obs;
            obs.peWork = std::move(pe_work);
            obs.drainCycle.assign(served.begin(), served.end());
            const std::vector<int> before = partition.owners();
            rebalance->observeAndAdjust(obs, row_work, partition);
            pending =
                mem.migrationBytes(before, partition.owners(), row_work);
        }
    }
    res.peakQueueDepth = std::max<std::size_t>(
        res.peakQueueDepth, static_cast<std::size_t>(cfg.numQueuesPerPe));
    res.syncCycles = std::max<Cycle>(0, res.cycles - res.idealCycles);
    res.utilization = res.cycles > 0
        ? static_cast<double>(res.tasks) /
          (static_cast<double>(P) * static_cast<double>(res.cycles))
        : 0.0;
    res.rowsSwitched = rebalance->totalRowsMoved();
    res.convergedRound = rebalance->convergedRound();
    return res;
}

/** Heavy-tailed row work with zero-work rows and a hot leading block. */
std::vector<Count>
skewedRowWork(Index rows)
{
    std::vector<Count> w(static_cast<std::size_t>(rows));
    for (Index r = 0; r < rows; ++r) {
        Count v = (r * 7919) % 9;  // 0..8, zeros included
        if (r % 97 == 0) v += 300 + r % 13;
        if (r < rows / 16) v += 40;
        w[static_cast<std::size_t>(r)] = v;
    }
    return w;
}

void
expectSameResult(const PerfSpmmResult &got, const PerfSpmmResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.tasks, want.tasks);
    EXPECT_EQ(got.idealCycles, want.idealCycles);
    EXPECT_EQ(got.syncCycles, want.syncCycles);
    EXPECT_EQ(got.utilization, want.utilization);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.rowsSwitched, want.rowsSwitched);
    EXPECT_EQ(got.convergedRound, want.convergedRound);
    EXPECT_EQ(got.peakQueueDepth, want.peakQueueDepth);
    EXPECT_EQ(got.traffic.sparseBytes, want.traffic.sparseBytes);
    EXPECT_EQ(got.traffic.denseBytes, want.traffic.denseBytes);
    EXPECT_EQ(got.traffic.outputBytes, want.traffic.outputBytes);
    EXPECT_EQ(got.traffic.migrationBytes, want.traffic.migrationBytes);
    EXPECT_EQ(got.traffic.haloBytes, want.traffic.haloBytes);
    EXPECT_EQ(got.traffic.bRowBytes, want.traffic.bRowBytes);
    EXPECT_EQ(got.traffic.outputIndexBytes, want.traffic.outputIndexBytes);
    EXPECT_EQ(got.memoryCycles, want.memoryCycles);
    EXPECT_EQ(got.bwBoundRounds, want.bwBoundRounds);
    EXPECT_EQ(got.roundCycles, want.roundCycles);
    EXPECT_EQ(got.perPeTasks, want.perPeTasks);
}

} // namespace

/** Reusing a round's outcome while the map's stamp holds must reproduce
 *  the recompute-every-round loop exactly, for every registered policy
 *  (rechunk and rescratch replace the whole map by assignment), with
 *  and without local sharing, with and without migration billing. */
TEST(PerfModel, RoundReuseMatchesRecomputeEveryRound)
{
    const auto cora = loadProfile(findDataset("cora"), 1, 1.0);
    const auto citeseer = loadProfile(findDataset("citeseer"), 1, 1.0);
    struct Work
    {
        const char *name;
        std::vector<Count> rowWork;
        Index innerDim;
    };
    const Work works[] = {
        {"skewed", skewedRowWork(3000), 0},
        {"cora-A", cora.aRowNnz, 0},
        {"citeseer-X1", citeseer.x1RowNnz, citeseer.spec.f1},
    };
    constexpr Index kRounds = 48;
    Count migration = 0;
    Count moved = 0;
    for (const BalancePolicy *policy : PolicyRegistry::instance().all()) {
        for (int pes : {16, 64}) {
            for (int hops : {0, 2}) {
                for (const char *platform : {"unconstrained", "d5005-ddr4"}) {
                    for (const Work &w : works) {
                        AccelConfig cfg = makePolicyConfig(policy->name, pes);
                        if (hops > 0) cfg.sharingHops = hops;
                        cfg.platform = platform;
                        const Index rows =
                            static_cast<Index>(w.rowWork.size());
                        const RowPartition start =
                            makePartitionPolicy(cfg)->build(rows, w.rowWork,
                                                            cfg);
                        RowPartition ref_part = start;
                        RowPartition got_part = start;
                        const PerfSpmmResult want = naiveRunSpmm(
                            cfg, w.rowWork, kRounds, ref_part, w.innerDim);
                        const PerfSpmmResult got = PerfModel(cfg).runSpmm(
                            w.rowWork, kRounds, got_part, w.innerDim);
                        SCOPED_TRACE(policy->name + " P=" +
                                     std::to_string(pes) + " hops=" +
                                     std::to_string(cfg.sharingHops) + " " +
                                     platform + " " + w.name);
                        expectSameResult(got, want);
                        EXPECT_EQ(got_part.owners(), ref_part.owners());
                        migration += got.traffic.migrationBytes;
                        moved += got.rowsSwitched;
                    }
                }
            }
        }
    }
    // The grid exercises migration billing, not just static maps.
    EXPECT_GT(moved, 0);
    EXPECT_GT(migration, 0);
}

namespace {

/** Results of running both fidelities on the same matrix. */
struct FidelityPair
{
    SpmmStats cyc;
    PerfSpmmResult prf;
};

FidelityPair
runBoth(Design design, const char *dataset, double scale, int pes,
        Index rounds)
{
    auto ds = loadSyntheticByName(dataset, 11, scale);
    const auto &hop = ds.spec.hopOverride;
    AccelConfig cfg = makeConfig(design, pes, hop > 0 ? hop : 1);

    DenseMatrix b(ds.spec.nodes, rounds);
    Rng rng(3);
    b.fillUniform(rng, -1.0f, 1.0f);

    FidelityPair out;
    {
        RowPartition part(ds.spec.nodes, pes);
        out.cyc = SpmmEngine(cfg)
                      .execute(ds.adjacency, b, TdqKind::Tdq2OmegaCsc, part)
                      .stats;
    }
    {
        RowPartition part(ds.spec.nodes, pes);
        out.prf = PerfModel(cfg).runSpmm(ds.adjacency.rowNnz(), rounds,
                                         part);
    }
    EXPECT_EQ(out.prf.tasks, out.cyc.tasks);
    return out;
}

} // namespace

/** Without rebalancing the two fidelities must agree tightly: the round
 *  duration is just the slowest PE's drain plus fixed overheads. */
class CrossValidateBaseline
    : public ::testing::TestWithParam<std::tuple<const char *, double>>
{};

TEST_P(CrossValidateBaseline, ModelMatchesCycleEngine)
{
    auto [dataset, scale] = GetParam();
    auto pair = runBoth(Design::Baseline, dataset, scale, 16, 8);
    double ratio = static_cast<double>(pair.prf.cycles) /
                   static_cast<double>(pair.cyc.cycles);
    // 35% band: the round model cannot see stream-order effects — e.g.
    // the +I diagonal of the normalized adjacency sends a run of
    // consecutive columns' flits to the same PE (a slow hotspot wave),
    // which costs the cycle engine extra queueing on diagonal-dominated
    // matrices like Pubmed.
    EXPECT_NEAR(ratio, 1.0, 0.35)
        << dataset << ": cycle=" << pair.cyc.cycles
        << " model=" << pair.prf.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, CrossValidateBaseline,
    ::testing::Values(std::make_tuple("cora", 0.5),
                      std::make_tuple("citeseer", 0.4),
                      std::make_tuple("pubmed", 0.15),
                      std::make_tuple("nell", 0.05)));

/** With rebalancing the round model is the optimistic envelope (optimal
 *  water-filling vs the engine's greedy online sharing; the paper itself
 *  reports a 4-10% utilization loss to the auto-tuning phase). Validate
 *  that it brackets the engine from below but stays within 2x, and that
 *  both fidelities agree rebalancing beats the baseline. */
class CrossValidateRebalanced
    : public ::testing::TestWithParam<std::tuple<Design, const char *,
                                                 double>>
{};

TEST_P(CrossValidateRebalanced, ModelIsTightLowerEnvelope)
{
    auto [design, dataset, scale] = GetParam();
    auto base = runBoth(Design::Baseline, dataset, scale, 16, 8);
    auto reb = runBoth(design, dataset, scale, 16, 8);

    // Envelope: model <= engine <= 2x model.
    EXPECT_LE(reb.prf.cycles, reb.cyc.cycles + 8);
    EXPECT_LE(reb.cyc.cycles, 2 * reb.prf.cycles);
    // Both fidelities: rebalancing does not lose to baseline (allow a
    // 10% noise band in the engine: on near-balanced workloads diversion
    // decisions on instantaneous queue depths add small jitter).
    EXPECT_LE(reb.cyc.cycles,
              static_cast<Cycle>(1.10 *
                                 static_cast<double>(base.cyc.cycles)));
    EXPECT_LE(reb.prf.cycles, base.prf.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossValidateRebalanced,
    ::testing::Combine(::testing::Values(Design::LocalA, Design::RemoteD),
                       ::testing::Values("cora", "pubmed"),
                       ::testing::Values(0.2)));

TEST(PerfModel, RebalancingHelpsSkewAtScale)
{
    // Full-scale Nell profile: baseline utilization must collapse (the
    // paper reports 13%) and Design(D) must recover most of it (77%).
    auto prof = loadProfile(findDataset("nell"), 1, 1.0);
    auto base = PerfModel(makeConfig(Design::Baseline, 1024)).runGcn(prof);
    auto d = PerfModel(makeConfig(Design::RemoteD, 1024, 2)).runGcn(prof);

    EXPECT_LT(base.utilization, 0.45);
    EXPECT_GT(d.utilization, 2.0 * base.utilization);
    EXPECT_LT(d.totalCycles, base.totalCycles / 2);
}

TEST(PerfModel, RedditAlreadyBalanced)
{
    auto prof = loadProfile(findDataset("reddit"), 1, 0.25);
    auto base = PerfModel(makeConfig(Design::Baseline, 1024)).runGcn(prof);
    auto d = PerfModel(makeConfig(Design::RemoteD, 1024)).runGcn(prof);
    EXPECT_GT(base.utilization, 0.7);
    double speedup = static_cast<double>(base.totalCycles) /
                     static_cast<double>(d.totalCycles);
    EXPECT_LT(speedup, 1.5);
}

TEST(PerfModel, FullScaleRedditRuns)
{
    auto prof = loadProfile(findDataset("reddit"), 1, 1.0);
    auto res = PerfModel(makeConfig(Design::RemoteD, 1024)).runGcn(prof);
    EXPECT_GT(res.totalTasks, Count(1000000000));  // ~6.6G per Table 2
    EXPECT_GT(res.totalCycles, 0);
    EXPECT_LE(res.utilization, 1.0);
}

TEST(PerfModel, PipelineNeverSlowerThanSerial)
{
    auto prof = loadProfile(findDataset("citeseer"), 2, 0.3);
    auto res = PerfModel(makeConfig(Design::RemoteC, 64)).runGcn(prof);
    EXPECT_LE(res.totalCycles, res.totalCyclesSerial);
}

TEST(AreaModel, TqDominatedByDepth)
{
    AccelConfig cfg = makeConfig(Design::Baseline, 64);
    auto small = estimateArea(cfg, 64);
    auto big = estimateArea(cfg, 65128);
    EXPECT_GT(big.tqClb, 100.0 * small.tqClb);
    EXPECT_DOUBLE_EQ(big.otherClb, small.otherClb);
}

TEST(AreaModel, RebalancingLogicOverheadSmall)
{
    auto base = estimateArea(makeConfig(Design::Baseline, 64), 100);
    auto d = estimateArea(makeConfig(Design::RemoteD, 64), 100);
    double frac = d.otherClb / base.otherClb;
    EXPECT_NEAR(frac, 1.0 + 0.043 + 0.019, 1e-9);
}

TEST(AreaModel, NetAreaCanShrinkWithRebalancing)
{
    // Paper: rebalancing REDUCES total area because the TQ savings dwarf
    // the logic overhead (Fig. 14 K-O).
    auto base = estimateArea(makeConfig(Design::Baseline, 64), 65128);
    auto d = estimateArea(makeConfig(Design::RemoteD, 64), 2675);
    EXPECT_LT(d.totalClb, base.totalClb);
}

TEST(EnergyModel, LatencyFromCycles)
{
    auto rep = evaluateEnergy(275000, 1000, 275.0);
    EXPECT_NEAR(rep.latencyMs, 1.0, 1e-9);
    EXPECT_GT(rep.energyJ, 0.0);
}

TEST(EnergyModel, FasterIsMoreEfficient)
{
    auto slow = evaluateEnergy(10000000, 1000000, 275.0);
    auto fast = evaluateEnergy(1000000, 1000000, 275.0);
    EXPECT_GT(fast.inferencesPerKj, slow.inferencesPerKj);
}

TEST(EnergyModel, FixedPowerPlatform)
{
    auto rep = evaluateFixedPower(10.0, 100.0);  // 10 ms at 100 W = 1 J
    EXPECT_NEAR(rep.energyJ, 1.0, 1e-12);
    EXPECT_NEAR(rep.inferencesPerKj, 1000.0, 1e-9);
}

TEST(Platforms, CpuMeasurementSane)
{
    auto ds = loadSyntheticByName("cora", 1, 0.1);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3);
    double ms = measureCpuLatencyMs(ds, model, 3);
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 10000.0);
}

TEST(Platforms, AnalyticOrdering)
{
    // CPU slower than GPU; both far slower than what the accelerator's
    // cycle counts imply — the Table 3 ordering.
    auto prof = loadProfile(findDataset("pubmed"), 1, 1.0);
    auto ops = countOpsProfile(prof);
    double cpu = modelCpuLatencyMs(ops);
    double gpu = modelGpuLatencyMs(ops, 2);
    EXPECT_GT(cpu, gpu);

    auto accel = PerfModel(makeConfig(Design::RemoteD, 1024)).runGcn(prof);
    double accel_ms =
        evaluateEnergy(accel.totalCycles, accel.totalTasks, 275.0).latencyMs;
    EXPECT_GT(gpu, accel_ms);
}
