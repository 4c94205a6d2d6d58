/**
 * @file
 * `awbsim --bench-serving`: the serving baseline (BENCH_serving.json).
 * Sweeps the open-loop arrival rate over ≥ 2 datasets on the
 * model-fidelity serving stack (DESIGN.md §10), records the
 * throughput-vs-p99 curve and runs one closed-loop experiment per
 * dataset to pin the saturation throughput. Its gate covers request
 * conservation (offered == completed + dropped + timed out),
 * non-decreasing latency percentiles (p50 ≤ p95 ≤ p99 ≤ p999) and
 * double-run byte-determinism per point.
 */

#include <chrono>

#include "common/table.hpp"
#include "driver/bench_harness.hpp"
#include "driver/serve_cli.hpp"
#include "serve/serve.hpp"

namespace awb::driver {

namespace {

bool
percentilesOrdered(const serve::LatencySummary &s)
{
    return s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999 &&
           s.p999 <= s.max;
}

bool
conserved(const serve::ServeResult &r)
{
    return r.offered == r.completed + r.dropped + r.timedOut;
}

void
runServing(const BenchArgs &a, BenchReport &report)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::string gate_error;
    auto fail = [&](const std::string &why) {
        if (gate_error.empty()) gate_error = why;
    };
    auto baseOptions = [&](const std::string &dataset) {
        serve::ServeOptions o;
        o.dataset = dataset;
        o.fidelity = serve::ServeFidelity::Model;
        o.durationMs = a.real("--duration-ms");
        o.devices = a.integer("--devices");
        o.discipline = a.str("--discipline");
        o.design = a.str("--policy");
        o.numPes = a.integer("--pes");
        o.seed = a.uinteger("--seed");
        return o;
    };

    Json points = Json::array();
    Json knees = Json::object();
    Table t({"dataset", "rate", "offered", "done", "lost", "p50(ms)",
             "p99(ms)", "batch", "rps"});
    for (const auto &dataset : a.items("--datasets")) {
        // The saturation knee of the curve: the first rate whose p99 is
        // at least twice the lowest rate's p99 (0 = no knee in range).
        Cycle base_p99 = -1;
        double knee = 0.0;
        for (double rate : a.reals("--rates")) {
            serve::ServeOptions o = baseOptions(dataset);
            o.ratePerSec = rate;
            const serve::ServeResult r = serve::runServe(o);
            const std::string at = dataset + " rate " + fixed(rate, 0);

            // A second run of the same options must render
            // byte-identical JSON (DESIGN.md §10).
            const bool deterministic =
                serveToJson(o, r).dump(2) ==
                serveToJson(o, serve::runServe(o)).dump(2);
            if (!deterministic) fail(at + ": double run diverged");
            if (!conserved(r))
                fail(at + ": request conservation violated");
            if (r.completed > 0 && !percentilesOrdered(r.latency))
                fail(at + ": latency percentiles out of order");
            if (r.completed > 0) {
                if (base_p99 < 0) base_p99 = r.latency.p99;
                if (knee == 0.0 && r.latency.p99 >= 2 * base_p99)
                    knee = rate;
            }

            const double p99_ms = serve::cyclesToMs(r.latency.p99,
                                                    r.clockMhz);
            t.addRow({dataset, fixed(rate, 0), std::to_string(r.offered),
                      std::to_string(r.completed),
                      std::to_string(r.dropped + r.timedOut),
                      fixed(serve::cyclesToMs(r.latency.p50, r.clockMhz),
                            3),
                      fixed(p99_ms, 3), fixed(r.meanBatchSize, 2),
                      fixed(r.throughputRps, 1)});
            Json p = Json::object();
            p.set("dataset", dataset);
            p.set("rate_rps", rate);
            p.set("offered", r.offered);
            p.set("completed", r.completed);
            p.set("dropped", r.dropped);
            p.set("timed_out", r.timedOut);
            p.set("batches", r.batches);
            p.set("mean_batch_size", r.meanBatchSize);
            p.set("end_cycle", r.endCycle);
            p.set("p50_cycles", r.latency.p50);
            p.set("p95_cycles", r.latency.p95);
            p.set("p99_cycles", r.latency.p99);
            p.set("p999_cycles", r.latency.p999);
            p.set("p99_ms", p99_ms);
            p.set("throughput_rps", r.throughputRps);
            p.set("peak_queue_depth", r.peakQueueDepth);
            p.set("deterministic", deterministic);
            points.push(std::move(p));
        }
        knees.set(dataset, knee);
    }
    report.table = t.render();

    // Closed-loop saturation point per dataset: C clients issuing
    // back-to-back measure the device pool's peak service throughput.
    Json closed = Json::array();
    for (const auto &dataset : a.items("--datasets")) {
        serve::ServeOptions o = baseOptions(dataset);
        o.arrivals = serve::ArrivalMode::Closed;
        o.clients = a.integer("--clients");
        const serve::ServeResult r = serve::runServe(o);
        if (!conserved(r))
            fail(dataset + " closed loop: request conservation violated");
        report.table +=
            dataset + " closed loop: " + std::to_string(r.completed) +
            " done, " + fixed(r.throughputRps, 1) + " rps saturation, p99 " +
            fixed(serve::cyclesToMs(r.latency.p99, r.clockMhz), 3) + " ms\n";
        Json p = Json::object();
        p.set("dataset", dataset);
        p.set("clients", o.clients);
        p.set("completed", r.completed);
        p.set("saturation_rps", r.throughputRps);
        p.set("p99_cycles", r.latency.p99);
        p.set("mean_batch_size", r.meanBatchSize);
        closed.push(std::move(p));
    }
    report.gates = {{"gates_ok", gate_error.empty(), gate_error}};

    Json &doc = report.doc;
    doc.set("discipline", a.str("--discipline"));
    doc.set("devices", a.integer("--devices"));
    doc.set("duration_ms", a.real("--duration-ms"));
    doc.set("policy", a.str("--policy"));
    doc.set("pes", a.integer("--pes"));
    doc.set("seed", a.uinteger("--seed"));
    doc.set("points", std::move(points));
    doc.set("closed_loop", std::move(closed));
    Json summary = Json::object();
    setGateFields(summary, report.gates);
    summary.set("knee_rate_rps", std::move(knees));
    summary.set("wall_ms", std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    doc.set("summary", std::move(summary));
}

} // namespace

BenchSpec
servingBench()
{
    return {"serving",
            "Serving baseline: open-loop throughput-vs-p99 curves over >= 2 "
            "datasets plus a closed-loop saturation point each, gated on "
            "request conservation, percentile ordering and double-run "
            "byte-determinism (DESIGN.md §10).",
            {benchList("--datasets", BenchArg::Dataset, "cora,pubmed",
                       "datasets")
                 .needs(2, "--bench-serving needs at least 2 datasets (the "
                           "tracked curve covers multiple non-zero "
                           "distributions)"),
             benchList("--rates", BenchArg::Real,
                       "25000,50000,100000,200000,400000,800000",
                       "open-loop offered rates, requests/s")
                 .needs(1),
             benchFlag("--discipline", BenchArg::Discipline, "dyn-batch",
                       "batch discipline"),
             benchFlag("--devices", BenchArg::Int, "2",
                       "simulated accelerator count")
                 .atLeast(1),
             benchFlag("--duration-ms", BenchArg::Real, "10",
                       "admission horizon per point, simulated ms"),
             benchFlag("--clients", BenchArg::Int, "16",
                       "closed-loop client population"),
             benchFlag("--policy", BenchArg::Policy, "remote-d",
                       "balance policy"),
             benchFlag("--pes", BenchArg::Int, "64", "PE-array size"),
             seedFlag()},
            runServing};
}

} // namespace awb::driver
