#include "driver/serve_cli.hpp"

#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/log.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "graph/datasets.hpp"

namespace awb::driver {

namespace {

/** Latency summary as JSON: exact cycle fields plus derived ms. */
Json
latencyJson(const serve::LatencySummary &s, double clock_mhz)
{
    Json j = Json::object();
    j.set("count", s.count);
    j.set("p50", s.p50);
    j.set("p95", s.p95);
    j.set("p99", s.p99);
    j.set("p999", s.p999);
    j.set("min", s.min);
    j.set("max", s.max);
    j.set("mean", s.mean);
    j.set("p50_ms", serve::cyclesToMs(s.p50, clock_mhz));
    j.set("p99_ms", serve::cyclesToMs(s.p99, clock_mhz));
    return j;
}

/** Shared flag parsing for the knobs --serve and --serve-sweep have in
 *  common; returns false when the flag is not a base serving knob. */
bool
parseServeFlag(serve::ServeOptions &o, const std::string &a,
               const std::function<std::string(const char *)> &need)
{
    if (a == "--dataset") {
        o.dataset = need("--dataset");
    } else if (a == "--fidelity") {
        o.fidelity = serve::parseServeFidelity(need("--fidelity"));
    } else if (a == "--arrivals") {
        o.arrivals = serve::parseArrivalMode(need("--arrivals"));
    } else if (a == "--rate") {
        o.ratePerSec = parseDouble("--rate", need("--rate"));
    } else if (a == "--clients") {
        o.clients = parseInt("--clients", need("--clients"));
    } else if (a == "--think-cycles") {
        o.thinkCycles = static_cast<Cycle>(
            parseUint("--think-cycles", need("--think-cycles")));
    } else if (a == "--duration-ms") {
        o.durationMs = parseDouble("--duration-ms", need("--duration-ms"));
    } else if (a == "--requests") {
        o.requestCap = parseUint("--requests", need("--requests"));
    } else if (a == "--discipline") {
        o.discipline =
            serve::DisciplineRegistry::instance().get(need("--discipline"))
                .name;
    } else if (a == "--max-batch") {
        o.disciplineParams.maxBatch = static_cast<std::size_t>(
            parseUint("--max-batch", need("--max-batch")));
    } else if (a == "--max-wait") {
        o.disciplineParams.maxWait = static_cast<Cycle>(
            parseUint("--max-wait", need("--max-wait")));
    } else if (a == "--queue-cap") {
        o.queueCapacity = static_cast<std::size_t>(
            parseUint("--queue-cap", need("--queue-cap")));
    } else if (a == "--timeout-cycles") {
        o.timeoutCycles = static_cast<Cycle>(
            parseUint("--timeout-cycles", need("--timeout-cycles")));
    } else if (a == "--slo-ms") {
        o.sloMs = parseDouble("--slo-ms", need("--slo-ms"));
    } else if (a == "--ego-frac") {
        o.mix.egoFraction = parseDouble("--ego-frac", need("--ego-frac"));
    } else if (a == "--hops") {
        o.mix.hops = parseInt("--hops", need("--hops"));
    } else if (a == "--max-ego-nodes") {
        o.mix.maxEgoNodes = static_cast<Index>(
            parseUint("--max-ego-nodes", need("--max-ego-nodes")));
    } else if (a == "--seed") {
        o.seed = parseUint("--seed", need("--seed"));
    } else if (a == "--design") {
        o.design = need("--design");
    } else if (a == "--pes") {
        o.numPes = parseInt("--pes", need("--pes"));
    } else if (a == "--scale") {
        o.scale = parseDouble("--scale", need("--scale"));
    } else {
        return false;
    }
    return true;
}

void
serveTableRow(const serve::ServeResult &r, std::vector<std::string> *row)
{
    row->push_back(std::to_string(r.offered));
    row->push_back(std::to_string(r.completed));
    row->push_back(std::to_string(r.dropped + r.timedOut));
    row->push_back(fixed(serve::cyclesToMs(r.latency.p50, r.clockMhz), 3));
    row->push_back(fixed(serve::cyclesToMs(r.latency.p99, r.clockMhz), 3));
    double util = 0.0;
    for (const auto &d : r.devices) util += d.utilization;
    if (!r.devices.empty()) util /= static_cast<double>(r.devices.size());
    row->push_back(percent(util));
    row->push_back(fixed(r.throughputRps, 1));
}

} // namespace

Json
serveToJson(const serve::ServeOptions &opts, const serve::ServeResult &res)
{
    Json doc = Json::object();
    doc.set("schema", "awbsim-serve-v1");
    doc.set("dataset", findDataset(opts.dataset).name);
    doc.set("fidelity", serve::serveFidelityName(opts.fidelity));
    doc.set("arrivals", serve::arrivalModeName(opts.arrivals));
    if (opts.arrivals == serve::ArrivalMode::Open) {
        doc.set("rate_rps", opts.ratePerSec);
    } else {
        doc.set("clients", opts.clients);
        doc.set("think_cycles", opts.thinkCycles);
    }
    doc.set("duration_ms", opts.durationMs);
    doc.set("devices", static_cast<int>(res.devices.size()));
    doc.set("discipline", opts.discipline);
    doc.set("max_batch", opts.disciplineParams.maxBatch);
    doc.set("max_wait_cycles", opts.disciplineParams.maxWait);
    doc.set("queue_capacity", opts.queueCapacity);
    doc.set("timeout_cycles", opts.timeoutCycles);
    doc.set("slo_ms", opts.sloMs);
    doc.set("seed", opts.seed);
    doc.set("design", opts.design);
    doc.set("pes", opts.numPes);
    doc.set("scale", opts.scale);
    Json mix = Json::object();
    mix.set("gcn", opts.mix.gcn);
    mix.set("graphsage", opts.mix.graphsage);
    mix.set("gin", opts.mix.gin);
    mix.set("ego_fraction", opts.mix.egoFraction);
    mix.set("hops", opts.mix.hops);
    mix.set("max_ego_nodes", opts.mix.maxEgoNodes);
    doc.set("mix", std::move(mix));

    doc.set("clock_mhz", res.clockMhz);
    doc.set("horizon_cycles", res.horizonCycles);
    doc.set("end_cycle", res.endCycle);
    doc.set("offered", res.offered);
    doc.set("admitted", res.admitted);
    doc.set("dropped", res.dropped);
    doc.set("timed_out", res.timedOut);
    doc.set("completed", res.completed);
    doc.set("batches", res.batches);
    doc.set("mean_batch_size", res.meanBatchSize);
    doc.set("offered_rps", res.offeredRps);
    doc.set("throughput_rps", res.throughputRps);
    doc.set("latency", latencyJson(res.latency, res.clockMhz));

    Json queue = Json::object();
    queue.set("peak_depth", res.peakQueueDepth);
    queue.set("mean_depth", res.meanQueueDepth);
    queue.set("wait", latencyJson(res.queueWait, res.clockMhz));
    doc.set("queue", std::move(queue));

    Json trace = Json::array();
    for (const auto &s : res.depthTrace) {
        Json p = Json::object();
        p.set("at", s.at);
        p.set("depth", s.depth);
        trace.push(std::move(p));
    }
    doc.set("depth_trace", std::move(trace));

    Json kinds = Json::object();
    for (std::size_t k = 0; k < res.kindLatency.size(); ++k)
        kinds.set(serve::workloadKindName(
                      static_cast<serve::WorkloadKind>(k)),
                  latencyJson(res.kindLatency[k], res.clockMhz));
    doc.set("kinds", std::move(kinds));

    Json scopes = Json::object();
    scopes.set("ego_completed", res.egoCompleted);
    scopes.set("full_completed", res.fullCompleted);
    doc.set("scopes", std::move(scopes));

    Json slo = Json::object();
    slo.set("slo_cycles", res.sloCycles);
    slo.set("violations", res.sloViolations);
    slo.set("violation_rate",
            res.offered > 0 ? static_cast<double>(res.sloViolations) /
                                  static_cast<double>(res.offered)
                            : 0.0);
    doc.set("slo", std::move(slo));

    Json devices = Json::array();
    for (const auto &d : res.devices) {
        Json p = Json::object();
        p.set("id", d.id);
        p.set("batches", d.batches);
        p.set("requests", d.requests);
        p.set("busy_cycles", d.busyCycles);
        p.set("utilization", d.utilization);
        devices.push(std::move(p));
    }
    doc.set("device_stats", std::move(devices));
    return doc;
}

std::vector<ServeSweepOutcome>
runServeSweep(const ServeSweepOptions &opts)
{
    // Expand the grid in a fixed order: rate-major, then discipline,
    // then device count — the JSON point order is part of the contract.
    std::vector<serve::ServeOptions> points;
    for (double rate : opts.rates)
        for (const auto &disc : opts.disciplines)
            for (int devices : opts.deviceCounts) {
                serve::ServeOptions o = opts.base;
                o.ratePerSec = rate;
                o.discipline = disc;
                o.devices = devices;
                points.push_back(std::move(o));
            }

    std::vector<ServeSweepOutcome> outcomes(points.size());
    unsigned n_threads = opts.threads > 0
                             ? static_cast<unsigned>(opts.threads)
                             : std::max(1U,
                                        std::thread::hardware_concurrency());
    n_threads = std::min<unsigned>(
        n_threads,
        static_cast<unsigned>(std::max<std::size_t>(points.size(), 1)));

    // Slot-indexed pool: each worker claims the next grid index and
    // writes outcomes[i] — results land by position, so the thread
    // count cannot reorder (or otherwise perturb) the document.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= points.size()) break;
            outcomes[i].opts = points[i];
            outcomes[i].result = serve::runServe(points[i]);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (auto &t : pool) t.join();
    return outcomes;
}

int
listDisciplines()
{
    auto all = serve::DisciplineRegistry::instance().all();
    std::printf("%zu registered batch disciplines:\n", all.size());
    for (const serve::DisciplineSpec *d : all)
        std::printf("  %-10s %s\n", d->name.c_str(),
                    d->description.c_str());
    return 0;
}

int
runServeCli(int argc, char **argv, int first)
{
    serve::ServeOptions opts;
    bool table = true;
    std::string json_path = "awbsim_serve.json";
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) fatal(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (parseServeFlag(opts, a, need)) continue;
        if (a == "--devices") {
            opts.devices = parseInt("--devices", need("--devices"));
        } else if (a == "--json") {
            json_path = need("--json");
        } else if (a == "--no-table") {
            table = false;
        } else {
            fatal("unknown serve flag: " + a);
        }
    }

    const serve::ServeResult res = serve::runServe(opts);

    if (table) {
        Table t({"dataset", "discipline", "devices", "offered", "done",
                 "lost", "p50(ms)", "p99(ms)", "util", "rps"});
        std::vector<std::string> row{opts.dataset, opts.discipline,
                                     std::to_string(opts.devices)};
        serveTableRow(res, &row);
        t.addRow(std::move(row));
        std::printf("%s", t.render().c_str());
    }
    writeJsonDoc(serveToJson(opts, res), json_path, "serve");
    return 0;
}

int
runServeSweepCli(int argc, char **argv, int first)
{
    ServeSweepOptions opts;
    bool table = true;
    std::string json_path = "awbsim_serve_sweep.json";
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) fatal(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (parseServeFlag(opts.base, a, need)) continue;
        if (a == "--rates") {
            opts.rates.clear();
            for (const auto &r : splitCsv(need("--rates")))
                opts.rates.push_back(parseDouble("--rates", r));
        } else if (a == "--disciplines") {
            opts.disciplines.clear();
            for (const auto &d : splitCsv(need("--disciplines")))
                opts.disciplines.push_back(
                    serve::DisciplineRegistry::instance().get(d).name);
        } else if (a == "--devices") {
            opts.deviceCounts.clear();
            for (const auto &d : splitCsv(need("--devices")))
                opts.deviceCounts.push_back(parseInt("--devices", d));
        } else if (a == "--threads") {
            opts.threads = parseInt("--threads", need("--threads"));
        } else if (a == "--json") {
            json_path = need("--json");
        } else if (a == "--no-table") {
            table = false;
        } else {
            fatal("unknown serve-sweep flag: " + a);
        }
    }
    if (opts.rates.empty() || opts.disciplines.empty() ||
        opts.deviceCounts.empty())
        fatal("serve-sweep grid has an empty axis");

    const auto outcomes = runServeSweep(opts);

    if (table) {
        Table t({"rate", "discipline", "devices", "offered", "done",
                 "lost", "p50(ms)", "p99(ms)", "util", "rps"});
        for (const auto &o : outcomes) {
            std::vector<std::string> row{fixed(o.opts.ratePerSec, 0),
                                         o.opts.discipline,
                                         std::to_string(o.opts.devices)};
            serveTableRow(o.result, &row);
            t.addRow(std::move(row));
        }
        std::printf("%s", t.render().c_str());
    }

    Json doc = Json::object();
    doc.set("schema", "awbsim-serve-sweep-v1");
    doc.set("dataset", opts.base.dataset);
    doc.set("fidelity", serve::serveFidelityName(opts.base.fidelity));
    doc.set("seed", opts.base.seed);
    Json jpoints = Json::array();
    for (const auto &o : outcomes)
        jpoints.push(serveToJson(o.opts, o.result));
    doc.set("points", std::move(jpoints));
    writeJsonDoc(doc, json_path, "serve-sweep");
    return 0;
}

} // namespace awb::driver
