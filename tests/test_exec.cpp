/**
 * @file
 * Unit tests of the unified execution core (DESIGN.md §13): the
 * process-wide WorkloadCache (hit/miss accounting, bit-identical
 * results, single-flight concurrency), the shared round-entry-state
 * cache (stats equivalence on fresh engines, both engine kinds, SPMM and
 * frontier-kernel SpGEMM, and the separation of their contexts), the
 * Runner's centralized utilization derivation, deterministic intra-point
 * parallelism (bit-identical functional SPMM at any thread count) and
 * the cache-independence of sweep JSON output.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "accel/spmm_engine.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "exec/run.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/frontier.hpp"
#include "kernels/pagerank.hpp"
#include "sparse/convert.hpp"
#include "sparse/dense.hpp"
#include "sparse/spmm.hpp"

using namespace awb;
using namespace awb::driver;

namespace {

/** Every test leaves the process-wide caches the way library users see
 *  them: disabled and empty. */
struct CacheGuard
{
    CacheGuard()
    {
        exec::setCachesEnabled(false);
        exec::WorkloadCache::instance().clear();
        RoundStateCache::instance().clear();
    }
    ~CacheGuard()
    {
        exec::setCachesEnabled(false);
        exec::WorkloadCache::instance().clear();
        RoundStateCache::instance().clear();
        setIntraThreads(0);
    }
};

bool
sameMatrix(const CscMatrix &x, const CscMatrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           x.colPtr() == y.colPtr() && x.rowId() == y.rowId() &&
           x.val() == y.val();
}

bool
sameStats(const SpmmStats &x, const SpmmStats &y)
{
    return x.cycles == y.cycles && x.tasks == y.tasks &&
           x.idealCycles == y.idealCycles &&
           x.syncCycles == y.syncCycles &&
           x.utilization == y.utilization &&
           x.peakQueueDepth == y.peakQueueDepth &&
           x.peakNetworkDepth == y.peakNetworkDepth &&
           x.rounds == y.rounds &&
           x.roundsSimulated == y.roundsSimulated &&
           x.rowsSwitched == y.rowsSwitched &&
           x.convergedRound == y.convergedRound &&
           x.rawStalls == y.rawStalls &&
           x.traffic.total() == y.traffic.total() &&
           x.memoryCycles == y.memoryCycles &&
           x.bwBoundRounds == y.bwBoundRounds &&
           x.roundCycles == y.roundCycles && x.perPeTasks == y.perPeTasks;
}

bool
sameTraffic(const MemoryTraffic &x, const MemoryTraffic &y)
{
    return x.sparseBytes == y.sparseBytes && x.denseBytes == y.denseBytes &&
           x.outputBytes == y.outputBytes &&
           x.migrationBytes == y.migrationBytes &&
           x.haloBytes == y.haloBytes && x.bRowBytes == y.bRowBytes &&
           x.outputIndexBytes == y.outputIndexBytes;
}

/** A frontier-kernel run: every FrontierRunStats field plus the
 *  functional output (BFS parents and depths, PageRank scores). */
struct FrontierOutcome
{
    kernels::FrontierRunStats stats;
    std::vector<Index> parent;
    std::vector<Index> depth;
    std::vector<Value> scores;
};

bool
sameOutcome(const FrontierOutcome &x, const FrontierOutcome &y)
{
    const kernels::FrontierRunStats &a = x.stats;
    const kernels::FrontierRunStats &b = y.stats;
    if (a.iterations.size() != b.iterations.size()) return false;
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        const kernels::FrontierIteration &p = a.iterations[i];
        const kernels::FrontierIteration &q = b.iterations[i];
        if (p.frontierNnz != q.frontierNnz || p.cycles != q.cycles ||
            p.tasks != q.tasks || p.rowsSwitched != q.rowsSwitched)
            return false;
    }
    return a.totalCycles == b.totalCycles && a.totalTasks == b.totalTasks &&
           a.rowsSwitched == b.rowsSwitched && a.rounds == b.rounds &&
           a.roundsSimulated == b.roundsSimulated &&
           sameTraffic(a.traffic, b.traffic) &&
           a.memoryCycles == b.memoryCycles &&
           a.bwBoundRounds == b.bwBoundRounds &&
           a.haloBytes == b.haloBytes && a.haloCycles == b.haloCycles &&
           a.haloBoundRounds == b.haloBoundRounds &&
           a.chipImbalance == b.chipImbalance &&
           a.peakQueueDepth == b.peakQueueDepth &&
           a.convergedRound == b.convergedRound && x.parent == y.parent &&
           x.depth == y.depth && x.scores == y.scores;
}

FrontierOutcome
runFrontier(const CscMatrix &a, bool pagerank, const std::string &policy,
            int pes, int chips, EngineKind engine)
{
    AccelConfig cfg = makePolicyConfig(policy, pes, hopBase(findDataset("cora")));
    cfg.engine = engine;
    cfg.chips = chips;
    FrontierOutcome out;
    if (pagerank) {
        kernels::PagerankRun run =
            kernels::runPagerank(cfg, a, 0.85, 1e-6, /*maxIters=*/40);
        out.stats = run.stats;
        out.scores = run.result.scores;
    } else {
        kernels::BfsRun run = kernels::runBfs(cfg, a, /*source=*/0);
        out.stats = run.stats;
        out.parent = run.result.parent;
        out.depth = run.result.depth;
    }
    return out;
}

/** `a` with every row id r relabelled to (r * mult) mod rows: the same
 *  column extents (hence the same nnz per column) over different rows. */
CscMatrix
relabelRows(const CscMatrix &a)
{
    const Index n = a.rows();
    Index mult = 7;
    while (std::gcd(mult, n) != 1) ++mult;
    std::vector<Index> row_id;
    std::vector<Value> val;
    for (Index j = 0; j < a.cols(); ++j) {
        std::vector<std::pair<Index, Value>> col;
        for (Count p = a.colPtr()[static_cast<std::size_t>(j)];
             p < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++p) {
            const auto r = static_cast<std::int64_t>(
                a.rowId()[static_cast<std::size_t>(p)]);
            col.emplace_back(static_cast<Index>((r * mult) % n),
                             a.val()[static_cast<std::size_t>(p)]);
        }
        std::sort(col.begin(), col.end());
        for (const auto &[r, v] : col) {
            row_id.push_back(r);
            val.push_back(v);
        }
    }
    return CscMatrix::fromParts(n, a.cols(), a.colPtr(), std::move(row_id),
                                std::move(val));
}

SpmmStats
runTdq2(EngineKind engine, int pes)
{
    const DatasetSpec &spec = findDataset("cora");
    CscMatrix a = loadSyntheticAdjacency(spec, /*seed=*/3, /*scale=*/0.5);
    Rng rng(3, /*seq=*/2);
    DenseMatrix b(a.cols(), 8);
    b.fillUniform(rng, -1.0f, 1.0f);
    AccelConfig cfg = makePolicyConfig("remote-d", pes, hopBase(spec));
    cfg.engine = engine;
    RowPartition part =
        makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
    return SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part).stats;
}

// ------------------------------------------------- workload cache

TEST(WorkloadCache, CountsHitsAndMissesAndReturnsSharedInstance)
{
    CacheGuard guard;
    exec::setCachesEnabled(true);
    auto &cache = exec::WorkloadCache::instance();
    const DatasetSpec &spec = findDataset("cora");

    auto a1 = cache.adjacency(spec, 5, 0.5);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    auto a2 = cache.adjacency(spec, 5, 0.5);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a1.get(), a2.get());  // one shared instance, not a copy

    // Every key axis separates: seed, scale, kind.
    cache.adjacency(spec, 6, 0.5);
    cache.adjacency(spec, 5, 0.25);
    cache.profile(spec, 5, 0.5);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(WorkloadCache, CachedResultsAreBitIdenticalToFreshLoads)
{
    CacheGuard guard;
    exec::setCachesEnabled(true);
    const DatasetSpec &spec = findDataset("citeseer");
    auto cached = exec::cachedAdjacency(spec, 9, 0.5);
    CscMatrix fresh = loadSyntheticAdjacency(spec, 9, 0.5);
    EXPECT_TRUE(sameMatrix(*cached, fresh));

    auto prof = exec::cachedProfile(spec, 9, 0.5);
    WorkloadProfile fresh_prof = loadProfile(spec, 9, 0.5);
    EXPECT_EQ(prof->aRowNnz, fresh_prof.aRowNnz);
    EXPECT_EQ(prof->x1RowNnz, fresh_prof.x1RowNnz);
    EXPECT_EQ(prof->x2RowNnz, fresh_prof.x2RowNnz);
}

TEST(WorkloadCache, DisabledCacheBuildsFreshAndCountsNothing)
{
    CacheGuard guard;
    auto &cache = exec::WorkloadCache::instance();
    const DatasetSpec &spec = findDataset("cora");
    auto a1 = cache.adjacency(spec, 5, 0.5);
    auto a2 = cache.adjacency(spec, 5, 0.5);
    EXPECT_NE(a1.get(), a2.get());  // distinct fresh instances
    EXPECT_TRUE(sameMatrix(*a1, *a2));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(WorkloadCache, ConcurrentRequestersShareOneSynthesis)
{
    CacheGuard guard;
    exec::setCachesEnabled(true);
    auto &cache = exec::WorkloadCache::instance();
    const DatasetSpec &spec = findDataset("pubmed");

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CscMatrix>> got(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back(
            [&, t] { got[t] = cache.adjacency(spec, 11, 0.25); });
    for (auto &t : pool) t.join();

    EXPECT_EQ(cache.misses(), 1u);  // single flight: one synthesis
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
}

// ------------------------------------------------- round-state cache

TEST(RoundStateCache, SharedReplayReproducesEveryStatBitForBit)
{
    CacheGuard guard;
    SpmmStats plain_event = runTdq2(EngineKind::Event, 16);
    SpmmStats plain_batched = runTdq2(EngineKind::Batched, 16);

    RoundStateCache::instance().setEnabled(true);
    SpmmStats warm = runTdq2(EngineKind::Event, 16);  // fills the cache
    EXPECT_TRUE(sameStats(plain_event, warm));
    EXPECT_GT(RoundStateCache::instance().size(), 0u);

    // Fresh engines replaying shared entries: identical stats, including
    // the peak depths (restored from per-round peaks) and
    // roundsSimulated (counts local-memo misses, not shared replays).
    std::uint64_t hits_before = RoundStateCache::instance().hits();
    SpmmStats replay_event = runTdq2(EngineKind::Event, 16);
    SpmmStats replay_batched = runTdq2(EngineKind::Batched, 16);
    EXPECT_GT(RoundStateCache::instance().hits(), hits_before);
    EXPECT_TRUE(sameStats(plain_event, replay_event));
    EXPECT_TRUE(sameStats(plain_batched, replay_batched));
}

TEST(RoundStateCache, FrontierKernelsReplayEveryStatBitForBit)
{
    CacheGuard guard;
    RoundStateCache &cache = RoundStateCache::instance();
    CscMatrix a =
        loadSyntheticAdjacency(findDataset("cora"), /*seed=*/3, 0.5);
    for (bool pagerank : {false, true}) {
        for (const char *policy : {"baseline", "remote-d", "work-steal"}) {
            for (int chips : {1, 2}) {
                for (EngineKind engine :
                     {EngineKind::Event, EngineKind::Batched}) {
                    for (int pes : {16, 64}) {
                        const std::string what =
                            std::string(pagerank ? "pagerank " : "bfs ") +
                            policy + " chips=" + std::to_string(chips) +
                            " pes=" + std::to_string(pes) +
                            (engine == EngineKind::Event ? " event"
                                                         : " batched");
                        cache.setEnabled(false);
                        FrontierOutcome off = runFrontier(
                            a, pagerank, policy, pes, chips, engine);
                        cache.clear();
                        cache.setEnabled(true);
                        FrontierOutcome cold = runFrontier(
                            a, pagerank, policy, pes, chips, engine);
                        const std::uint64_t cold_hits = cache.hits();
                        FrontierOutcome warm = runFrontier(
                            a, pagerank, policy, pes, chips, engine);
                        EXPECT_TRUE(sameOutcome(off, cold)) << what;
                        EXPECT_TRUE(sameOutcome(off, warm)) << what;
                        // Without a within-run memo, every SpGEMM round
                        // counts as simulated, replayed or not.
                        EXPECT_EQ(off.stats.roundsSimulated,
                                  off.stats.rounds *
                                      (chips == 1 ? 1 : chips))
                            << what;
                        // The warm run retraces the cold trajectory, so
                        // every one of its rounds replays.
                        EXPECT_EQ(cache.hits() - cold_hits,
                                  static_cast<std::uint64_t>(
                                      warm.stats.roundsSimulated))
                            << what;
                        // A static map repeats each PageRank iteration's
                        // entry state and stream: even the cold run
                        // replays every iteration after the first.
                        if (pagerank &&
                            std::string(policy) == "baseline") {
                            EXPECT_GT(cold_hits, 0u) << what;
                        }
                    }
                }
            }
        }
    }
}

TEST(RoundStateCache, SpgemmContextSeparatesRowSequenceAndKind)
{
    CacheGuard guard;
    RoundStateCache &cache = RoundStateCache::instance();
    const DatasetSpec &spec = findDataset("cora");
    CscMatrix a = loadSyntheticAdjacency(spec, /*seed=*/3, 0.5);
    // Same nnz in every column, different rows.
    CscMatrix relabelled = relabelRows(a);
    // A frontier holding every vertex expands every column of A, so its
    // one round streams exactly A's CSC sequence, as an SPMM over A does.
    std::vector<std::pair<Index, Value>> every;
    for (Index v = 0; v < a.cols(); ++v) every.emplace_back(v, 1.0f);
    const CscMatrix x = kernels::frontierVector(a.cols(), every);
    Rng rng(3, /*seq=*/4);
    DenseMatrix b(a.cols(), 1);
    b.fillUniform(rng, -1.0f, 1.0f);

    AccelConfig cfg = makePolicyConfig("baseline", 16, hopBase(spec));
    const RowPartition start =
        makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
    // Every run enters its first round in the same state: this map, idle
    // arbiters, parity 0. Only the cache context can tell them apart.
    auto spgemm = [&](const CscMatrix &m) {
        RowPartition part = start;
        return SpmmEngine(cfg).executeSpgemm(m, x, part).stats;
    };
    auto spmm = [&](TdqKind kind) {
        RowPartition part = start;
        return SpmmEngine(cfg).execute(a, b, kind, part).stats;
    };

    const SpmmStats cold_a = spgemm(a);
    const SpmmStats cold_relabelled = spgemm(relabelled);
    const SpmmStats cold_tdq1 = spmm(TdqKind::Tdq1DenseScan);
    const SpmmStats cold_tdq2 = spmm(TdqKind::Tdq2OmegaCsc);
    // Replaying A's round in their place would be visible.
    ASSERT_FALSE(sameStats(cold_a, cold_relabelled));
    ASSERT_FALSE(sameStats(cold_a, cold_tdq1));

    cache.setEnabled(true);
    EXPECT_TRUE(sameStats(cold_a, spgemm(a)));  // warms the cache
    ASSERT_EQ(cache.size(), 1u);
    EXPECT_TRUE(sameStats(cold_relabelled, spgemm(relabelled)));
    EXPECT_TRUE(sameStats(cold_tdq1, spmm(TdqKind::Tdq1DenseScan)));
    EXPECT_TRUE(sameStats(cold_tdq2, spmm(TdqKind::Tdq2OmegaCsc)));
    EXPECT_EQ(cache.hits(), 0u);  // no entry crossed contexts
    EXPECT_TRUE(sameStats(cold_a, spgemm(a)));
    EXPECT_EQ(cache.hits(), 1u);
}

// ------------------------------------------------- runner + utilization

TEST(ExecRun, UtilizationIsDerivedInOnePlaceForEveryMode)
{
    CacheGuard guard;
    for (exec::Mode mode :
         {exec::Mode::Model, exec::Mode::SpmmTdq2, exec::Mode::Bfs,
          exec::Mode::ChurnGcn}) {
        exec::RunRequest req;
        req.dataset = "cora";
        req.policy = "remote-d";
        req.pes = 16;
        req.mode = mode;
        req.seed = 3;
        req.scale = 0.5;
        exec::RunResult r = exec::run(req);
        ASSERT_TRUE(r.ok) << exec::modeName(mode) << ": " << r.error;
        ASSERT_GT(r.cycles, 0) << exec::modeName(mode);
        EXPECT_DOUBLE_EQ(r.utilization,
                         static_cast<double>(r.tasks) /
                             (16.0 * static_cast<double>(r.cycles)))
            << exec::modeName(mode);
    }
}

TEST(ExecRun, ErrorsComeBackAsResultsNotAborts)
{
    CacheGuard guard;
    exec::RunRequest req;
    req.dataset = "cora";
    req.pes = 48;  // not a power of two: Omega network rejects it
    req.mode = exec::Mode::SpmmTdq2;
    exec::RunResult r = exec::run(req);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

TEST(ExecRun, ModeNamesRoundTripThroughTheCore)
{
    for (exec::Mode m :
         {exec::Mode::Model, exec::Mode::Cycle, exec::Mode::SpmmTdq1,
          exec::Mode::SpmmTdq2, exec::Mode::GraphSage, exec::Mode::Gin,
          exec::Mode::KhopGcn, exec::Mode::Bfs, exec::Mode::Pagerank,
          exec::Mode::ChurnGcn})
        EXPECT_EQ(exec::parseMode(exec::modeName(m)), m);
}

// ------------------------------------------------- cache-independent sweeps

TEST(ExecSweep, JsonIsByteIdenticalWithCachesOnOrOff)
{
    CacheGuard guard;
    SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"baseline", "remote-d"};
    opts.peCounts = {32};
    opts.modes = {SweepMode::Model, SweepMode::Cycle};
    opts.scale = 0.4;
    opts.seed = 7;
    opts.threads = 2;

    std::string off = sweepToJson(opts, runSweep(opts)).dump(2);
    exec::setCachesEnabled(true);
    std::string on = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(off, on);
    EXPECT_GT(exec::WorkloadCache::instance().hits(), 0u);
}

TEST(ExecSweep, JsonIsByteIdenticalAtAnyIntraThreadCount)
{
    CacheGuard guard;
    SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"remote-d"};
    opts.peCounts = {32};
    opts.modes = {SweepMode::Cycle};
    opts.scale = 0.4;
    opts.seed = 7;
    opts.threads = 1;

    setIntraThreads(1);
    std::string serial = sweepToJson(opts, runSweep(opts)).dump(2);
    setIntraThreads(7);
    std::string wide = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(serial, wide);
}

// ------------------------------------------------- parallel determinism

TEST(Parallel, ChunkedSpmmIsBitIdenticalAtAnyThreadCount)
{
    CacheGuard guard;
    // Big enough that nnz(A) * cols(B) crosses kParallelMinWork, so the
    // parallel path genuinely runs at intra-threads > 1.
    const DatasetSpec &spec = findDataset("cora");
    CscMatrix a = loadSyntheticAdjacency(spec, 13, 1.0);
    Rng rng(13, 2);
    DenseMatrix b(a.cols(), 128);
    b.fillUniform(rng, -1.0f, 1.0f);
    ASSERT_GE(a.nnz() * static_cast<Count>(b.cols()),
              static_cast<Count>(kParallelMinWork));

    setIntraThreads(1);
    DenseMatrix serial_csc = spmmCsc(a, b);
    CsrMatrix a_csr = cscToCsr(a);
    DenseMatrix serial_csr = spmmCsr(a_csr, b);
    for (int threads : {2, 3, 8}) {
        setIntraThreads(threads);
        DenseMatrix par_csc = spmmCsc(a, b);
        DenseMatrix par_csr = spmmCsr(a_csr, b);
        ASSERT_EQ(par_csc.data().size(), serial_csc.data().size());
        EXPECT_EQ(std::memcmp(par_csc.data().data(),
                              serial_csc.data().data(),
                              serial_csc.data().size() * sizeof(Value)),
                  0)
            << "spmmCsc diverged at " << threads << " threads";
        EXPECT_EQ(std::memcmp(par_csr.data().data(),
                              serial_csr.data().data(),
                              serial_csr.data().size() * sizeof(Value)),
                  0)
            << "spmmCsr diverged at " << threads << " threads";
    }
}

// ------------------------------------------------- CLI surfaces

TEST(ExecCliDeath, UnknownDatasetSuggestsNearestName)
{
    EXPECT_EXIT(findDataset("coraa"), ::testing::ExitedWithCode(1),
                "did you mean 'cora'");
    EXPECT_EXIT(findDataset("redit"), ::testing::ExitedWithCode(1),
                "did you mean 'reddit'");
}

TEST(ExecCli, ListDatasetsSucceedsAndGlobalFlagsAreStripped)
{
    CacheGuard guard;
    {
        const char *argv[] = {"awbsim", "--list-datasets"};
        EXPECT_EQ(driverMain(2, const_cast<char **>(argv)), 0);
        EXPECT_TRUE(exec::cachesEnabled());  // driver default: caches on
    }
    {
        const char *argv[] = {"awbsim", "--no-cache", "--list-datasets",
                              "--intra-threads", "2"};
        EXPECT_EQ(driverMain(5, const_cast<char **>(argv)), 0);
        EXPECT_FALSE(exec::cachesEnabled());  // escape hatch honored
        EXPECT_EQ(intraThreads(), 2);
    }
}

} // namespace
