/**
 * @file
 * `awbsim --bench-engine`: the event-vs-batched cycle-engine benchmark
 * (BENCH_engine.json). Runs the same adjacency SPMM (TDQ-2, the
 * paper's A×(XW) kernel) through both cycle engines — per-non-zero
 * event stepping and the round-batched engine (DESIGN.md §6) — across a
 * dataset × PE × policy grid, measuring wall-clock and simulated
 * cycles, and optionally adds a Reddit-scale batched-only point the
 * event engine cannot complete in reasonable time. Its gate: the two
 * engines agree bit for bit on cycles, tasks, rowsSwitched and
 * convergedRound.
 */

#include <cstdio>
#include <optional>

#include "common/table.hpp"
#include "driver/bench_harness.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"

namespace awb::driver {

namespace {

/** One dataset × PEs × policy point (no event run when batched-only). */
struct EnginePoint
{
    std::string dataset;
    int pes = 0;
    Index nodes = 0;
    std::optional<exec::RunResult> event;
    exec::RunResult batched;
};

Json
engineJson(const exec::RunResult &r)
{
    Json j = Json::object();
    j.set("wall_ms", r.wallMs);
    j.set("cycles", r.cycles);
    j.set("tasks", r.tasks);
    j.set("rows_switched", r.rowsSwitched);
    j.set("converged_round", r.convergedRound);
    j.set("rounds", r.rounds);
    j.set("rounds_simulated", r.roundsSimulated);
    return j;
}

void
runEngine(const BenchArgs &a, BenchReport &report)
{
    const int k = a.integer("--k");
    // The core's wallMs times only the engine execution (synthesis, the
    // B fill and the partition build stay outside the clock).
    auto run = [&](const std::string &dataset, int pes,
                   const std::string &policy, EngineKind engine) {
        exec::RunRequest req;
        req.dataset = dataset;
        req.policy = policy;
        req.pes = pes;
        req.mode = exec::Mode::SpmmTdq2;
        req.engine = engine;
        req.seed = a.uinteger("--seed");
        req.scale = a.real("--scale");
        req.denseCols = k;
        return benchRun("engine", req);
    };

    Table t({"dataset", "PEs", "policy", "nnz", "event(ms)", "batched(ms)",
             "speedup", "cycles", "rounds sim", "identical"});
    Json jpoints = Json::array();
    std::vector<EnginePoint> points;
    bool all_identical = true;
    auto addPoint = [&](const std::string &dataset, int pes,
                        const std::string &policy, bool with_event) {
        auto adj = exec::WorkloadCache::instance().adjacency(
            findDataset(dataset), a.uinteger("--seed"), a.real("--scale"));
        EnginePoint p{dataset, pes, adj->rows(), std::nullopt, {}};
        if (with_event)
            p.event = run(dataset, pes, policy, EngineKind::Event);
        p.batched = run(dataset, pes, policy, EngineKind::Batched);

        Json j = Json::object();
        j.set("dataset", dataset);
        j.set("pes", pes);
        j.set("policy", policy);
        j.set("nodes", adj->rows());
        j.set("nnz", adj->nnz());
        j.set("k", k);
        bool identical = true;
        double speedup = 0.0;
        if (p.event) {
            const exec::RunResult &e = *p.event;
            identical = e.cycles == p.batched.cycles &&
                        e.tasks == p.batched.tasks &&
                        e.rowsSwitched == p.batched.rowsSwitched &&
                        e.convergedRound == p.batched.convergedRound;
            speedup = p.batched.wallMs > 0.0
                ? e.wallMs / p.batched.wallMs
                : 0.0;
            j.set("event", engineJson(e));
            j.set("speedup", speedup);
            j.set("identical", identical);
        }
        j.set("batched", engineJson(p.batched));
        jpoints.push(std::move(j));
        all_identical = all_identical && identical;
        t.addRow({dataset, std::to_string(pes), policy,
                  humanCount(static_cast<double>(adj->nnz())),
                  p.event ? fixed(p.event->wallMs, 1) : "-",
                  fixed(p.batched.wallMs, 1),
                  p.event ? fixed(speedup, 1) + "x" : "-",
                  humanCount(static_cast<double>(p.batched.cycles)),
                  std::to_string(p.batched.roundsSimulated) + "/" +
                      std::to_string(p.batched.rounds),
                  p.event ? (identical ? "yes" : "NO") : "n/a"});
        points.push_back(std::move(p));
    };

    for (const std::string &dataset : a.items("--datasets")) {
        for (int pes : a.integers("--pes")) {
            for (const std::string &policy : a.items("--policies")) {
                std::fprintf(stderr, "bench-engine: %s @ %d PEs %s ...\n",
                             dataset.c_str(), pes, policy.c_str());
                addPoint(dataset, pes, policy, /*with_event=*/true);
            }
        }
    }
    const int reddit_pes = a.integer("--reddit-pes");
    if (reddit_pes > 0) {
        const std::string &policy = a.str("--reddit-policy");
        std::fprintf(stderr,
                     "bench-engine: reddit @ %d PEs %s (batched only, "
                     "%d nodes) ...\n",
                     reddit_pes, policy.c_str(), findDataset("reddit").nodes);
        addPoint("reddit", reddit_pes, policy, /*with_event=*/false);
    }
    report.table = t.render();

    // Headline perf-trajectory number: the largest event-vs-batched
    // config (nodes × PEs), aggregated over every policy run at that
    // size so slow-converging policies (whose rounds mostly have to be
    // event-stepped either way) cannot be cherry-picked away.
    const EnginePoint *largest = nullptr;
    for (const EnginePoint &p : points)
        if (p.event && (largest == nullptr ||
                        static_cast<double>(p.nodes) * p.pes >
                            static_cast<double>(largest->nodes) *
                                largest->pes))
            largest = &p;
    Json summary = Json::object();
    if (largest != nullptr) {
        double event_ms = 0.0;
        double batched_ms = 0.0;
        for (const EnginePoint &p : points) {
            if (!p.event || p.dataset != largest->dataset ||
                p.pes != largest->pes)
                continue;
            event_ms += p.event->wallMs;
            batched_ms += p.batched.wallMs;
        }
        const double speedup =
            batched_ms > 0.0 ? event_ms / batched_ms : 0.0;
        report.table += "largest paired config " + largest->dataset +
                        " @ " + std::to_string(largest->pes) +
                        " PEs (all policies): " + fixed(speedup, 1) +
                        "x batched speedup\n";
        Json l = Json::object();
        l.set("dataset", largest->dataset);
        l.set("pes", largest->pes);
        l.set("event_wall_ms", event_ms);
        l.set("batched_wall_ms", batched_ms);
        l.set("speedup", speedup);
        summary.set("largest_paired_config", std::move(l));
    }
    report.gates = {{"all_identical", all_identical,
                     "the batched engine diverged from the event engine"}};
    setGateFields(summary, report.gates);

    Json &doc = report.doc;
    doc.set("seed", a.uinteger("--seed"));
    doc.set("scale", a.real("--scale"));
    doc.set("k", k);
    doc.set("points", std::move(jpoints));
    doc.set("summary", std::move(summary));
}

} // namespace

BenchSpec
engineBench()
{
    return {"engine",
            "Benchmark the event vs. round-batched cycle engines "
            "(wall-clock + simulated cycles per dataset x PE x policy) and "
            "gate on the two agreeing bit for bit (DESIGN.md §6).",
            {benchList("--datasets", BenchArg::Dataset,
                       "cora,citeseer,pubmed", "datasets"),
             benchList("--pes", BenchArg::Int, "64,256", "PE-array sizes"),
             benchList("--policies", BenchArg::Policy, "baseline,remote-d",
                       "balance policies"),
             benchFlag("--k", BenchArg::Int, "64",
                       "dense-operand columns (rounds)")
                 .atLeast(1),
             benchFlag("--reddit-pes", BenchArg::Int, "0",
                       "also run Reddit at N PEs on the batched engine "
                       "only (0 = skip)"),
             benchFlag("--reddit-policy", BenchArg::Policy, "remote-d",
                       "policy of the Reddit point"),
             seedFlag(), scaleFlag()},
            runEngine};
}

} // namespace awb::driver
