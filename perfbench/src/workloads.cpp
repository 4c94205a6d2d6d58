#include "workloads.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "accel/round_cache.hpp"
#include "common/log.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"

namespace perfbench {

using awb::driver::SweepMode;

namespace {

SweepOptions
grid(std::vector<std::string> datasets, std::vector<std::string> designs,
     std::vector<int> pes, std::vector<SweepMode> modes,
     std::uint64_t seed)
{
    SweepOptions o;
    o.datasets = std::move(datasets);
    o.designs = std::move(designs);
    o.peCounts = std::move(pes);
    o.modes = std::move(modes);
    o.engine = awb::EngineKind::Batched;
    o.seed = seed;
    o.threads = kWorkers;
    return o;
}

const std::vector<std::string> kCitation = {"cora", "citeseer", "pubmed"};
const std::vector<std::string> kPaperDesigns = {"base", "a", "b", "c", "d"};

/** The 2-layer GCN on the cycle engine and its model twin, point by
 *  point: the pairs model_cycle_gap compares. */
SweepOptions
cyclePairGrid(std::uint64_t seed)
{
    return grid(kCitation, kPaperDesigns, {256},
                {SweepMode::Cycle, SweepMode::Model}, seed);
}

Workload
assemble(std::string name, std::vector<SweepOptions> grids)
{
    Workload w;
    w.name = std::move(name);
    w.grids = std::move(grids);
    for (std::size_t g = 0; g < w.grids.size(); ++g) {
        // runSweep takes one options struct for every point; the
        // per-point knobs it reads must therefore agree across slices.
        if (w.grids[g].engine != w.grids[0].engine ||
            w.grids[g].scale != w.grids[0].scale)
            awb::fatal("workload '" + w.name +
                       "': slices differ in engine or scale");
        for (SweepPoint p : awb::driver::expandGrid(w.grids[g])) {
            p.index = w.points.size();
            w.points.push_back(std::move(p));
            w.gridOf.push_back(g);
        }
    }
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "engine-mix"};
    return names;
}

Workload
fig14Reference(std::uint64_t seed)
{
    return assemble("fig14-reference",
                    {grid({"cora", "citeseer", "pubmed", "nell", "reddit"},
                          kPaperDesigns, {512}, {SweepMode::Model}, seed)});
}

Workload
cyclePairReference(std::uint64_t seed)
{
    return assemble("cycle-pairs", {cyclePairGrid(seed)});
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper-grid") {
        SweepOptions full =
            grid({"cora", "citeseer", "pubmed", "nell", "reddit"},
                 {"base", "a", "b", "c", "d", "eie", "degsort", "steal",
                  "rechunk"},
                 {512, 1024, 2048, 4096}, {SweepMode::Model}, seed);
        full.platforms = {"unconstrained", "d5005-ddr4"};
        SweepOptions sharded = grid(kCitation, {"base", "d"}, {1024},
                                    {SweepMode::Model}, seed);
        sharded.platforms = {"d5005-ddr4"};
        sharded.chipCounts = {2, 4, 8};
        return assemble(name, {full, sharded});
    }
    if (name == "engine-mix")
        return assemble(name,
                        {cyclePairGrid(seed),
                         grid(kCitation,
                              {"baseline", "remote-d", "delta-greedy",
                               "delta-threshold", "rescratch"},
                              {256}, {SweepMode::ChurnGcn}, seed),
                         grid(kCitation, {"baseline", "remote-d", "work-steal"},
                              {256}, {SweepMode::Bfs, SweepMode::Pagerank},
                              seed)});
    awb::fatal("unknown workload '" + name + "' (paper-grid|engine-mix)");
}

std::vector<SweepOutcome>
runWorkload(const Workload &w)
{
    return awb::driver::runSweep(w.grids.front(), w.points);
}

std::size_t
serializeWorkload(const Workload &w,
                  const std::vector<SweepOutcome> &outcomes)
{
    std::size_t bytes = 0;
    for (std::size_t g = 0; g < w.grids.size(); ++g) {
        std::vector<SweepOutcome> slice;
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            if (w.gridOf[i] == g) slice.push_back(outcomes[i]);
        bytes += awb::driver::sweepToJson(w.grids[g], slice).dump(2).size();
    }
    return bytes;
}

std::vector<Input>
requiredInputs(const Workload &w)
{
    std::vector<Input> out;
    std::set<std::tuple<int, std::string, std::uint64_t>> seen;
    auto need = [&](Input::Kind kind, const SweepPoint &p, double scale) {
        if (seen.insert({static_cast<int>(kind), p.dataset, p.seed}).second)
            out.push_back({kind, p.dataset, p.seed, scale});
    };
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const SweepPoint &p = w.points[i];
        const double scale = w.grids[w.gridOf[i]].scale;
        // The loader each mode reaches for in exec::run.
        switch (p.mode) {
          case SweepMode::Model:
            need(Input::Kind::Profile, p, scale);
            if (p.chips > 1) need(Input::Kind::Adjacency, p, scale);
            break;
          case SweepMode::Bfs:
          case SweepMode::Pagerank:
          case SweepMode::ChurnGcn:
            need(Input::Kind::Adjacency, p, scale);
            break;
          default:
            need(Input::Kind::Dataset, p, scale);
            break;
        }
    }
    return out;
}

void
buildInput(const Input &in)
{
    const awb::DatasetSpec &spec = awb::findDataset(in.dataset);
    switch (in.kind) {
      case Input::Kind::Profile:
        awb::exec::cachedProfile(spec, in.seed, in.scale);
        break;
      case Input::Kind::Dataset:
        awb::exec::cachedDataset(spec, in.seed, in.scale);
        break;
      case Input::Kind::Adjacency:
        awb::exec::cachedAdjacency(spec, in.seed, in.scale);
        break;
    }
}

void
clearCaches()
{
    awb::exec::WorkloadCache::instance().clear();
    awb::RoundStateCache::instance().clear();
}

void
forEachPoint(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n) break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t) pool.emplace_back(worker);
    for (auto &t : pool) t.join();
    if (error) std::rethrow_exception(error);
}

} // namespace perfbench
