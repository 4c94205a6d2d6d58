/**
 * @file
 * `awbsim --bench-scaleout`: the multi-chip scaling baseline
 * (BENCH_scaleout.json). Runs the round-level GCN model of one dataset
 * through exec::run, sharded across a chip-count curve × platform grid
 * (DESIGN.md §9), and records cycles, halo traffic and chip imbalance
 * per point. Its gate: halo bytes must be zero at 1 chip and monotone
 * non-decreasing along the chip axis (more chips can only cut more
 * boundary edges).
 */

#include "common/table.hpp"
#include "driver/bench_harness.hpp"

namespace awb::driver {

namespace {

void
runScaleout(const BenchArgs &a, BenchReport &report)
{
    const std::vector<int> chip_counts = a.integers("--chips");
    bool halo_ok = true;
    Json points = Json::array();
    Table t({"platform", "chips", "cycles", "speedup", "halo GB",
             "halo cycles", "imbalance", "latency(ms)"});
    for (const auto &platform : a.items("--platforms")) {
        Cycle one_chip_cycles = 0;
        Count prev_halo = 0;
        for (std::size_t i = 0; i < chip_counts.size(); ++i) {
            const int chips = chip_counts[i];
            exec::RunRequest req;
            req.dataset = a.str("--dataset");
            req.policy = a.str("--policy");
            req.platform = platform;
            req.pes = a.integer("--pes");
            req.chips = chips;
            req.seed = a.uinteger("--seed");
            req.scale = a.real("--scale");
            const exec::RunResult r = benchRun("scaleout", req);

            if (chips == 1) one_chip_cycles = r.cycles;
            const double speedup = one_chip_cycles > 0 && r.cycles > 0
                ? static_cast<double>(one_chip_cycles) /
                      static_cast<double>(r.cycles)
                : 1.0;
            // The halo gate (DESIGN.md §9): one chip has no boundary,
            // and cutting the graph into more shards can only turn more
            // edges into boundary edges.
            if (chips == 1 && r.haloBytes != 0) halo_ok = false;
            if (i > 0 && chips > chip_counts[i - 1] &&
                r.haloBytes < prev_halo)
                halo_ok = false;
            prev_halo = r.haloBytes;

            t.addRow({platform, std::to_string(chips),
                      humanCount(static_cast<double>(r.cycles)),
                      fixed(speedup, 2) + "x",
                      fixed(static_cast<double>(r.haloBytes) / 1e9, 3),
                      humanCount(static_cast<double>(r.haloCycles)),
                      fixed(r.chipImbalance, 3), fixed(r.latencyMs, 3)});
            Json p = Json::object();
            p.set("platform", platform);
            p.set("chips", chips);
            p.set("cycles", r.cycles);
            p.set("halo_bytes", r.haloBytes);
            p.set("halo_cycles", r.haloCycles);
            p.set("halo_bound_rounds", r.haloBoundRounds);
            p.set("chip_imbalance", r.chipImbalance);
            p.set("bytes_total", r.bytesTotal);
            p.set("memory_cycles", r.memoryCycles);
            p.set("bw_bound_rounds", r.bwBoundRounds);
            p.set("latency_ms", r.latencyMs);
            p.set("speedup", speedup);
            p.set("wall_ms", r.wallMs);
            points.push(std::move(p));
        }
    }
    report.table = t.render();
    report.gates = {{"halo_monotone", halo_ok,
                     "halo traffic is non-zero at 1 chip or non-monotone "
                     "along the chip axis"}};

    Json &doc = report.doc;
    doc.set("dataset", a.str("--dataset"));
    doc.set("policy", a.str("--policy"));
    doc.set("pes", a.integer("--pes"));
    doc.set("seed", a.uinteger("--seed"));
    doc.set("scale", a.real("--scale"));
    doc.set("points", std::move(points));
    Json summary = Json::object();
    setGateFields(summary, report.gates);
    doc.set("summary", std::move(summary));
}

} // namespace

BenchSpec
scaleoutBench()
{
    return {"scaleout",
            "Multi-chip scaling baseline: shard one dataset across a "
            "chip-count curve on the round-level model and gate on the "
            "halo-traffic curve being monotone and zero at 1 chip "
            "(DESIGN.md §9).",
            {benchFlag("--dataset", BenchArg::Dataset, "reddit", "dataset"),
             benchList("--chips", BenchArg::Int, "1,2,4,8,16",
                       "chip-count curve")
                 .atLeast(1)
                 .needs(1),
             benchList("--platforms", BenchArg::Platform,
                       "d5005-ddr4,p100-hbm2", "memory platforms")
                 .alias("--platform"),
             benchFlag("--policy", BenchArg::Policy, "remote-d",
                       "balance policy"),
             benchFlag("--pes", BenchArg::Int, "1024",
                       "PE-array size per chip")
                 .atLeast(1),
             seedFlag(), scaleFlag()},
            runScaleout};
}

} // namespace awb::driver
