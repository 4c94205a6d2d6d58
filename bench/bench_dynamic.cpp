/**
 * @file
 * `awbsim --bench-dynamic`: the dynamic-graph streaming benchmark
 * (BENCH_dynamic.json). Runs churn-gcn epochs (DESIGN.md §12) on each
 * dataset, once per balance policy, and records the per-epoch
 * carried-vs-fresh drift curve plus the convergence half-life — the
 * first epoch at which a carried partition's cycles drift past the
 * tolerance relative to a freshly tuned one. Four gates: determinism
 * (two event runs agree), engine equivalence (batched == event),
 * rebuild identity (the DeltaCsr-maintained matrix after every batch
 * bit-equals a from-scratch rebuild of the live edge set) and
 * trajectory agreement (the round-level model's per-epoch
 * churn/migration trajectory equals the cycle engine's — epoch
 * boundaries are fidelity-independent).
 */

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "accel/policy.hpp"
#include "common/table.hpp"
#include "driver/bench_harness.hpp"
#include "dynamic/dynamic_runner.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"

namespace awb::driver {

namespace {

using dynamic::ChurnOp;
using dynamic::ChurnParams;
using dynamic::DeltaCsr;
using dynamic::DynamicFidelity;
using dynamic::DynamicOptions;
using dynamic::DynamicRunStats;
using dynamic::EdgeChurnStream;
using dynamic::EdgeEvent;

bool
sameRun(const DynamicRunStats &x, const DynamicRunStats &y)
{
    if (x.totalCycles != y.totalCycles || x.totalTasks != y.totalTasks ||
        x.rowsMoved != y.rowsMoved ||
        x.halfLifeEpochs != y.halfLifeEpochs ||
        x.traffic.total() != y.traffic.total() ||
        x.epochs.size() != y.epochs.size())
        return false;
    for (std::size_t e = 0; e < x.epochs.size(); ++e) {
        if (x.epochs[e].cycles != y.epochs[e].cycles ||
            x.epochs[e].freshCycles != y.epochs[e].freshCycles)
            return false;
    }
    return true;
}

/** Epoch boundaries are fidelity-independent: churn, per-row work and
 *  the boundary policy's migrations must agree between the cycle
 *  engine and the round-level model. */
bool
sameTrajectory(const DynamicRunStats &x, const DynamicRunStats &y)
{
    if (x.epochs.size() != y.epochs.size()) return false;
    for (std::size_t e = 0; e < x.epochs.size(); ++e) {
        const dynamic::DynamicEpoch &a = x.epochs[e];
        const dynamic::DynamicEpoch &b = y.epochs[e];
        if (a.inserts != b.inserts || a.deletes != b.deletes ||
            a.nnz != b.nnz || a.rowsChanged != b.rowsChanged ||
            a.rowsMoved != b.rowsMoved)
            return false;
    }
    return true;
}

/** Replay the dataset's churn schedule through a DeltaCsr and check the
 *  incremental matrix after *every* batch against a from-scratch CSR
 *  rebuild of the live edge set (DESIGN.md §12). */
bool
rebuildIdentical(const CscMatrix &initial, const ChurnParams &churn,
                 Count epochs, Count events_per_epoch)
{
    auto key = [](Index r, Index c) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r))
                << 32U) |
               static_cast<std::uint32_t>(c);
    };
    EdgeChurnStream stream(initial, churn);
    DeltaCsr delta(initial);
    std::unordered_map<std::uint64_t, Value> live;
    const CsrMatrix seed = cscToCsr(initial);
    for (Index r = 0; r < seed.rows(); ++r) {
        for (Count p = seed.rowPtr()[static_cast<std::size_t>(r)];
             p < seed.rowPtr()[static_cast<std::size_t>(r) + 1]; ++p) {
            live[key(r, seed.colId()[static_cast<std::size_t>(p)])] =
                seed.val()[static_cast<std::size_t>(p)];
        }
    }
    for (Count e = 0; e < epochs; ++e) {
        std::vector<EdgeEvent> batch = stream.nextBatch(events_per_epoch);
        delta.apply(batch);
        for (const EdgeEvent &ev : batch) {
            if (ev.op == ChurnOp::Insert)
                live[key(ev.row, ev.col)] = ev.val;
            else
                live.erase(key(ev.row, ev.col));
        }
        CooMatrix coo(initial.rows(), initial.cols());
        for (const auto &[k, v] : live)
            coo.add(static_cast<Index>(k >> 32U),
                    static_cast<Index>(k & 0xffffffffU), v);
        coo.canonicalize();
        const CsrMatrix rebuilt = CsrMatrix::fromCoo(coo);
        const CsrMatrix inc = delta.toCsr();
        if (inc.rowPtr() != rebuilt.rowPtr() ||
            inc.colId() != rebuilt.colId() || inc.val() != rebuilt.val())
            return false;
    }
    return true;
}

void
runDynamic(const BenchArgs &a, BenchReport &report)
{
    const std::uint64_t seed = a.uinteger("--seed");
    const double scale = a.real("--scale");
    std::vector<std::string> policies = a.items("--policies");
    if (std::find(policies.begin(), policies.end(), "baseline") ==
        policies.end())
        policies.insert(policies.begin(), "baseline");

    ChurnParams churn;
    churn.insertFrac = a.real("--insert-frac");
    churn.seed = seed;

    DynamicOptions dopts;
    dopts.epochs = a.integer("--epochs");
    dopts.eventsPerEpoch = a.integer("--events");
    dopts.denseCols = a.integer("--dense-cols");
    dopts.driftTolerance = a.real("--drift-tol");
    dopts.fidelity = DynamicFidelity::Cycle;
    dopts.seed = seed;

    bool deterministic = true;
    bool engines_identical = true;
    bool rebuild_identical = true;
    bool trajectory_ok = true;
    Json points = Json::array();
    Json half_life = Json::object();

    Table t({"dataset", "design", "epochs", "cycles", "moved",
             "end drift", "half-life"});
    for (const auto &dataset : a.items("--datasets")) {
        const DatasetSpec &spec = findDataset(dataset);
        const auto a_p = exec::cachedAdjacency(spec, seed, scale);
        const CscMatrix &adj = *a_p;

        // Policy-independent, so once per dataset.
        if (!rebuildIdentical(adj, churn, dopts.epochs,
                              dopts.eventsPerEpoch))
            rebuild_identical = false;

        Json &per_policy = half_life[dataset] = Json::object();
        for (const auto &policy : policies) {
            AccelConfig cfg =
                makePolicyConfig(policy, a.integer("--pes"), hopBase(spec));
            cfg.platform = a.str("--platform");
            cfg.engine = EngineKind::Event;

            auto t0 = std::chrono::steady_clock::now();
            DynamicRunStats ev = dynamic::runChurnGcn(cfg, adj, churn, dopts);
            auto t1 = std::chrono::steady_clock::now();

            if (!sameRun(ev, dynamic::runChurnGcn(cfg, adj, churn, dopts)))
                deterministic = false;
            AccelConfig bcfg = cfg;
            bcfg.engine = EngineKind::Batched;
            if (!sameRun(ev, dynamic::runChurnGcn(bcfg, adj, churn, dopts)))
                engines_identical = false;
            DynamicOptions mopts = dopts;
            mopts.fidelity = DynamicFidelity::Model;
            if (!sameTrajectory(
                    ev, dynamic::runChurnGcn(cfg, adj, churn, mopts)))
                trajectory_ok = false;

            std::vector<double> drift;
            std::vector<Cycle> epoch_cycles, fresh_cycles;
            for (const auto &e : ev.epochs) {
                drift.push_back(e.drift);
                epoch_cycles.push_back(e.cycles);
                fresh_cycles.push_back(e.freshCycles);
            }
            t.addRow({dataset, PolicyRegistry::instance().get(policy).label,
                      std::to_string(ev.epochs.size()),
                      humanCount(static_cast<double>(ev.totalCycles)),
                      std::to_string(ev.rowsMoved),
                      fixed(drift.empty() ? 0.0 : drift.back(), 3),
                      ev.halfLifeEpochs < 0
                          ? "never"
                          : std::to_string(ev.halfLifeEpochs)});
            Json p = Json::object();
            p.set("dataset", dataset);
            p.set("policy", policy);
            p.set("epochs", static_cast<Count>(ev.epochs.size()));
            p.set("cycles", ev.totalCycles);
            p.set("tasks", ev.totalTasks);
            p.set("rows_moved", ev.rowsMoved);
            p.set("rows_changed", ev.rowsChanged);
            p.set("half_life_epochs", ev.halfLifeEpochs);
            p.set("drift", jsonArray(drift));
            p.set("epoch_cycles", jsonArray(epoch_cycles));
            p.set("fresh_cycles", jsonArray(fresh_cycles));
            p.set("bytes_total", ev.traffic.total());
            p.set("wall_ms",
                  std::chrono::duration<double, std::milli>(t1 - t0)
                      .count());
            points.push(std::move(p));
            per_policy.set(policy, ev.halfLifeEpochs);
        }
    }
    report.table = t.render();
    report.gates = {
        {"deterministic", deterministic,
         "a second event run diverged from the first"},
        {"engines_identical", engines_identical,
         "the batched engine diverged from the event engine"},
        {"rebuild_identical", rebuild_identical,
         "the incremental matrix differs from a from-scratch rebuild"},
        {"trajectory_ok", trajectory_ok,
         "the round-level model walked a different epoch trajectory"},
    };

    Json &doc = report.doc;
    doc.set("pes", a.integer("--pes"));
    doc.set("seed", seed);
    doc.set("scale", scale);
    doc.set("epochs", dopts.epochs);
    doc.set("events_per_epoch", dopts.eventsPerEpoch);
    doc.set("dense_cols", dopts.denseCols);
    doc.set("insert_frac", churn.insertFrac);
    doc.set("drift_tolerance", dopts.driftTolerance);
    doc.set("platform", a.str("--platform"));
    doc.set("points", std::move(points));
    Json summary = Json::object();
    setGateFields(summary, report.gates);
    summary.set("half_life", std::move(half_life));
    doc.set("summary", std::move(summary));
}

} // namespace

BenchSpec
dynamicBench()
{
    // 256 PEs (few rows per PE) with growth-dominated churn is the
    // regime where a frozen partition visibly ages: hub rows fatten
    // under preferential attachment and single PEs go hot. At 64 PEs
    // the same churn averages out and every half-life is "never".
    return {"dynamic",
            "Dynamic-graph streaming baseline: churn-gcn epochs across the "
            "balance-policy axis with per-epoch carried-vs-fresh drift "
            "curves and the convergence half-life, gated on determinism, "
            "event/batched equivalence, incremental-vs-rebuilt matrix "
            "identity and cycle/model trajectory agreement (DESIGN.md §12).",
            {benchList("--datasets", BenchArg::Dataset, "cora,citeseer",
                       "datasets")
                 .needs(1),
             benchList("--policies", BenchArg::Policy,
                       "baseline,rescratch,rechunk,delta-greedy,"
                       "delta-threshold,work-steal,remote-d",
                       "balance policies; baseline is prepended when "
                       "absent")
                 .alias("--designs")
                 .needs(1),
             benchFlag("--pes", BenchArg::Int, "256", "PE-array size")
                 .atLeast(1),
             benchFlag("--epochs", BenchArg::Int, "10",
                       "churn batches per run")
                 .atLeast(1),
             benchFlag("--events", BenchArg::Int, "1024",
                       "churn events per batch")
                 .atLeast(1),
             benchFlag("--dense-cols", BenchArg::Int, "8",
                       "feature columns per epoch"),
             benchFlag("--insert-frac", BenchArg::Real, "0.9",
                       "churn insert:delete mix"),
             benchFlag("--drift-tol", BenchArg::Real, "0.10",
                       "half-life drift tolerance"),
             seedFlag(), scaleFlag(),
             benchFlag("--platform", BenchArg::Platform, "unconstrained",
                       "memory platform")},
            runDynamic};
}

} // namespace awb::driver
