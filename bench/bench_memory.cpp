/**
 * @file
 * `awbsim --bench-memory`: the cross-platform memory-model baseline
 * (BENCH_memory.json). Runs the round-level GCN model (full-scale
 * capable) through exec::run across a dataset × policy × platform grid
 * and records the bandwidth-bound share of every point (DESIGN.md §8).
 * Its gate: on the `unconstrained` platform the bandwidth floor must
 * never engage (`memory_cycles == 0`, `bw_bound_rounds == 0`), the
 * property that makes the roofline composition the identity; the
 * bit-identity to platform-less configs is locked by
 * tests/test_memory_model.cpp.
 */

#include "common/table.hpp"
#include "driver/bench_harness.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

std::string
allPlatforms()
{
    std::string out;
    for (const PlatformSpec &p : knownPlatforms())
        out += (out.empty() ? "" : ",") + p.name;
    return out;
}

void
runMemory(const BenchArgs &a, BenchReport &report)
{
    std::vector<std::string> platforms = a.items("--platforms");
    if (platforms.empty())
        for (const PlatformSpec &p : knownPlatforms())
            platforms.push_back(p.name);
    bool noop_ok = true;
    Count bw_bound_points = 0;
    Json points = Json::array();
    Table t({"dataset", "policy", "platform", "cycles", "mem floor",
             "bw-bound", "GB moved", "latency(ms)"});
    for (const auto &dataset : a.items("--datasets")) {
        for (const auto &policy : a.items("--policies")) {
            for (const auto &platform : platforms) {
                exec::RunRequest req;
                req.dataset = dataset;
                req.policy = policy;
                req.platform = platform;
                req.pes = a.integer("--pes");
                req.seed = a.uinteger("--seed");
                req.scale = a.real("--scale");
                const exec::RunResult r = benchRun("memory", req);
                // The no-op gate (DESIGN.md §8).
                const bool noop = findPlatform(platform).bandwidthGBs > 0.0 ||
                                  (r.memoryCycles == 0 &&
                                   r.bwBoundRounds == 0);
                noop_ok = noop_ok && noop;
                if (r.bwBoundRounds > 0) ++bw_bound_points;
                t.addRow({dataset, policy, platform,
                          humanCount(static_cast<double>(r.cycles)),
                          humanCount(static_cast<double>(r.memoryCycles)),
                          std::to_string(r.bwBoundRounds) + "/" +
                              std::to_string(r.rounds),
                          fixed(static_cast<double>(r.bytesTotal) / 1e9,
                                3),
                          fixed(r.latencyMs, 3)});
                Json p = Json::object();
                p.set("dataset", dataset);
                p.set("policy", policy);
                p.set("platform", platform);
                p.set("cycles", r.cycles);
                p.set("memory_cycles", r.memoryCycles);
                p.set("rounds", r.rounds);
                p.set("bw_bound_rounds", r.bwBoundRounds);
                p.set("rows_switched", r.rowsSwitched);
                p.set("converged_round", r.convergedRound);
                p.set("bytes_total", r.bytesTotal);
                p.set("bytes_migrated", r.bytesMigrated);
                p.set("latency_ms", r.latencyMs);
                p.set("noop_identical", noop);
                points.push(std::move(p));
            }
        }
    }
    report.table = t.render();
    report.gates = {{"noop_identical", noop_ok,
                     "the bandwidth floor engaged on an unconstrained "
                     "platform"}};

    Json &doc = report.doc;
    doc.set("seed", a.uinteger("--seed"));
    doc.set("scale", a.real("--scale"));
    doc.set("pes", a.integer("--pes"));
    doc.set("points", std::move(points));
    Json summary = Json::object();
    setGateFields(summary, report.gates);
    summary.set("bw_bound_points", bw_bound_points);
    doc.set("summary", std::move(summary));
}

} // namespace

BenchSpec
memoryBench()
{
    return {"memory",
            "Cross-platform memory-model baseline: run the round-level GCN "
            "model across dataset x policy x platform and gate on the "
            "unconstrained platform being a timing no-op (DESIGN.md §8).",
            {benchList("--datasets", BenchArg::Dataset,
                       "cora,citeseer,pubmed,nell,reddit", "datasets"),
             benchList("--policies", BenchArg::Policy, "baseline,remote-d",
                       "balance policies"),
             benchList("--platforms", BenchArg::Platform, allPlatforms(),
                       "memory platforms (empty = every registered one)")
                 .alias("--platform"),
             benchFlag("--pes", BenchArg::Int, "1024", "PE-array size")
                 .atLeast(1),
             seedFlag(), scaleFlag()},
            runMemory};
}

} // namespace awb::driver
