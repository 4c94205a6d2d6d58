/**
 * @file
 * `awbsim --bench-spgemm`: the BFS/PageRank graph-kernel benchmark
 * (BENCH_spgemm.json). Runs both kernels as iterated sparse-output
 * SpGEMMs (DESIGN.md §11) on one dataset, once per balance policy, and
 * records per-iteration frontier-size and cycle curves plus a
 * rebalance helps/hurts verdict against the static baseline. Four
 * gates: determinism (two event-engine runs agree), engine equivalence
 * (batched == event), functional correctness (BFS parent/depth arrays
 * bit-equal the scalar reference; PageRank scores within 1e-6 L1 and
 * converged) and model-traffic equality (PerfModel::runSpgemm traffic
 * byte-equal to the engine for the static baseline).
 */

#include <algorithm>
#include <chrono>
#include <cmath>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "driver/bench_harness.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

/** One engine execution of a kernel, reduced to what the gates need. */
struct KernelRun
{
    kernels::FrontierRunStats stats;
    bool functionalOk = false;
};

bool
sameStats(const kernels::FrontierRunStats &x,
          const kernels::FrontierRunStats &y)
{
    return x.totalCycles == y.totalCycles && x.totalTasks == y.totalTasks &&
           x.rowsSwitched == y.rowsSwitched && x.rounds == y.rounds &&
           x.traffic.total() == y.traffic.total() &&
           x.memoryCycles == y.memoryCycles;
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

std::string
verdictOf(Cycle cycles, Cycle baseline_cycles)
{
    const double ratio = static_cast<double>(cycles) /
                         static_cast<double>(baseline_cycles);
    if (ratio < 0.99) return "helps";
    if (ratio > 1.01) return "hurts";
    return "neutral";
}

void
runSpgemm(const BenchArgs &args, BenchReport &report)
{
    const DatasetSpec &spec = findDataset(args.str("--dataset"));
    const auto a_p = exec::cachedAdjacency(spec, args.uinteger("--seed"),
                                           args.real("--scale"));
    const CscMatrix &a = *a_p;
    const Index source = args.integer("--source");
    const double damping = args.real("--damping");
    const double tol = args.real("--tol");
    const Count max_iters = args.integer("--max-iters");
    if (source < 0 || source >= a.rows())
        fatal("bench-spgemm: --source out of range for the scaled graph");

    // The verdict needs the static baseline's cycle count first.
    std::vector<std::string> policies = args.items("--policies");
    if (std::find(policies.begin(), policies.end(), "baseline") ==
        policies.end())
        policies.insert(policies.begin(), "baseline");

    const kernels::BfsResult bfs_ref = kernels::bfsReference(a, source);
    const kernels::PagerankResult pr_ref =
        kernels::pagerankReference(a, damping, tol, max_iters);

    auto runOnce = [&](const std::string &kernel,
                       const AccelConfig &cfg) -> KernelRun {
        KernelRun out;
        if (kernel == "bfs") {
            kernels::BfsRun run = kernels::runBfs(cfg, a, source);
            out.stats = run.stats;
            out.functionalOk = run.result.parent == bfs_ref.parent &&
                               run.result.depth == bfs_ref.depth &&
                               run.result.frontierSizes ==
                                   bfs_ref.frontierSizes;
            return out;
        }
        kernels::PagerankRun run =
            kernels::runPagerank(cfg, a, damping, tol, max_iters);
        out.stats = run.stats;
        double l1 = 0.0;
        for (std::size_t v = 0; v < run.result.scores.size(); ++v)
            l1 += std::fabs(
                static_cast<double>(run.result.scores[v]) -
                static_cast<double>(pr_ref.scores[v]));
        out.functionalOk = run.result.converged == pr_ref.converged &&
                           run.result.iterations == pr_ref.iterations &&
                           l1 <= 1e-6;
        return out;
    };

    bool deterministic = true;
    bool engines_identical = true;
    bool functional_ok = true;
    bool model_traffic_ok = true;
    Json points = Json::array();
    Json verdicts = Json::object();

    Table t({"kernel", "design", "iters", "cycles", "vs base", "switched",
             "bytes", "verdict"});
    for (const std::string kernel : {"bfs", "pagerank"}) {
        Cycle baseline_cycles = 0;
        Json &per_policy = verdicts[kernel] = Json::object();
        for (const auto &policy : policies) {
            AccelConfig cfg = makePolicyConfig(policy, args.integer("--pes"),
                                               hopBase(spec));
            cfg.platform = args.str("--platform");
            cfg.engine = EngineKind::Event;

            auto t0 = std::chrono::steady_clock::now();
            KernelRun ev = runOnce(kernel, cfg);
            auto t1 = std::chrono::steady_clock::now();

            KernelRun again = runOnce(kernel, cfg);
            if (!sameStats(ev.stats, again.stats)) deterministic = false;
            AccelConfig bcfg = cfg;
            bcfg.engine = EngineKind::Batched;
            KernelRun bat = runOnce(kernel, bcfg);
            if (!sameStats(ev.stats, bat.stats)) engines_identical = false;
            if (!ev.functionalOk || !again.functionalOk ||
                !bat.functionalOk)
                functional_ok = false;
            // Traffic equality is provable only for static policies, so
            // it is gated on the baseline (DESIGN.md §11).
            if (policy == "baseline") {
                kernels::FrontierRunStats m =
                    kernel == "bfs"
                        ? kernels::modelBfs(cfg, a, source)
                        : kernels::modelPagerank(cfg, a, damping, tol,
                                                 max_iters);
                if (!sameTraffic(m.traffic, ev.stats.traffic))
                    model_traffic_ok = false;
            }

            const kernels::FrontierRunStats &s = ev.stats;
            double vs_baseline = 1.0;
            std::string verdict = "baseline";
            if (policy == "baseline") {
                baseline_cycles = s.totalCycles;
            } else if (baseline_cycles > 0) {
                vs_baseline = static_cast<double>(s.totalCycles) /
                              static_cast<double>(baseline_cycles);
                verdict = verdictOf(s.totalCycles, baseline_cycles);
            }
            std::vector<Count> frontier;
            std::vector<Cycle> iter_cycles;
            for (const auto &it : s.iterations) {
                frontier.push_back(it.frontierNnz);
                iter_cycles.push_back(it.cycles);
            }

            t.addRow({kernel, PolicyRegistry::instance().get(policy).label,
                      std::to_string(s.iterations.size()),
                      humanCount(static_cast<double>(s.totalCycles)),
                      fixed(vs_baseline, 3) + "x",
                      std::to_string(s.rowsSwitched),
                      humanCount(static_cast<double>(s.traffic.total())),
                      verdict});
            Json p = Json::object();
            p.set("kernel", kernel);
            p.set("policy", policy);
            p.set("iterations", static_cast<Count>(s.iterations.size()));
            p.set("cycles", s.totalCycles);
            p.set("tasks", s.totalTasks);
            p.set("rows_switched", s.rowsSwitched);
            p.set("frontier", jsonArray(frontier));
            p.set("iter_cycles", jsonArray(iter_cycles));
            p.set("bytes_total", s.traffic.total());
            p.set("b_row_bytes", s.traffic.bRowBytes);
            p.set("output_index_bytes", s.traffic.outputIndexBytes);
            p.set("migration_bytes", s.traffic.migrationBytes);
            p.set("cycles_vs_baseline", vs_baseline);
            p.set("verdict", verdict);
            p.set("wall_ms",
                  std::chrono::duration<double, std::milli>(t1 - t0)
                      .count());
            points.push(std::move(p));
            per_policy.set(policy, verdict);
        }
    }
    report.table = t.render();
    report.gates = {
        {"deterministic", deterministic,
         "a second event run diverged from the first"},
        {"engines_identical", engines_identical,
         "the batched engine diverged from the event engine"},
        {"functional_ok", functional_ok,
         "a kernel result differs from its scalar reference"},
        {"model_traffic_ok", model_traffic_ok,
         "the round-level model's traffic differs from the engine's"},
    };

    Json &doc = report.doc;
    doc.set("dataset", spec.name);
    doc.set("pes", args.integer("--pes"));
    doc.set("seed", args.uinteger("--seed"));
    doc.set("scale", args.real("--scale"));
    doc.set("source", source);
    doc.set("damping", damping);
    doc.set("tol", tol);
    doc.set("platform", args.str("--platform"));
    doc.set("points", std::move(points));
    Json summary = Json::object();
    setGateFields(summary, report.gates);
    summary.set("verdicts", std::move(verdicts));
    doc.set("summary", std::move(summary));
}

} // namespace

BenchSpec
spgemmBench()
{
    return {"spgemm",
            "Graph-kernel baseline: BFS and PageRank as iterated "
            "sparse-output SpGEMMs across the balance-policy axis, with "
            "per-iteration frontier curves and a rebalance helps/hurts "
            "verdict per policy, gated on determinism, batched==event "
            "equivalence, functional correctness vs the scalar references "
            "and model-vs-engine traffic equality (DESIGN.md §11).",
            {benchFlag("--dataset", BenchArg::Dataset, "cora", "dataset"),
             benchList("--policies", BenchArg::Policy,
                       "baseline,local-b,remote-c,remote-d,work-steal",
                       "balance policies; baseline is prepended when "
                       "absent")
                 .alias("--designs")
                 .needs(1),
             benchFlag("--pes", BenchArg::Int, "64", "PE-array size")
                 .atLeast(1),
             benchFlag("--source", BenchArg::Int, "0", "BFS source vertex"),
             benchFlag("--damping", BenchArg::Real, "0.85",
                       "PageRank damping factor"),
             benchFlag("--tol", BenchArg::Real, "1e-6",
                       "PageRank L1 convergence threshold"),
             benchFlag("--max-iters", BenchArg::Int, "200",
                       "PageRank iteration cap")
                 .atLeast(1),
             seedFlag(), scaleFlag(),
             benchFlag("--platform", BenchArg::Platform, "unconstrained",
                       "memory platform")},
            runSpgemm};
}

} // namespace awb::driver
