#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "accel/scaleout.hpp"
#include "dynamic/dynamic_runner.hpp"
#include "exec/run.hpp"
#include "exec/workload_cache.hpp"
#include "gcn/model.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"

namespace perfbench {

using awb::Count;
using awb::driver::SweepMode;
using awb::exec::RunResult;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kNoPoint = static_cast<std::size_t>(-1);

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** In-memory span recorder, written out once at the end of the run. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::size_t point = kNoPoint;  ///< the sweep point (request id)
        int id = 0;
        int parent = -1;               ///< the span that caused this one
        double startMs = 0.0;          ///< relative to the tracer epoch
        double endMs = 0.0;
    };

    /** Records one span from construction to destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::size_t point,
              int parent = -1)
            : t_(t), span_{name, point, t.nextId_.fetch_add(1), parent,
                           t.nowMs(), 0.0}
        {
        }

        ~Scope()
        {
            span_.endMs = t_.nowMs();
            std::lock_guard<std::mutex> lock(t_.mu_);
            t_.spans_.push_back(std::move(span_));
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return span_.id; }

      private:
        Tracer &t_;
        Span span_;
    };

    double
    totalMs(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double sum = 0.0;
        for (const Span &s : spans_)
            if (s.name == name) sum += s.endMs - s.startMs;
        return sum;
    }

    std::size_t
    write(const std::string &path, const std::string &workload) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::ofstream out(path);
        out << "{\"workload\": \"" << workload << "\", \"spans\": [\n";
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"point\": %lld, \"id\": %d, "
                          "\"parent\": %d, \"start_ms\": %.6f, "
                          "\"end_ms\": %.6f}%s\n",
                          s.name.c_str(),
                          s.point == kNoPoint
                              ? -1LL
                              : static_cast<long long>(s.point),
                          s.id, s.parent, s.startMs, s.endMs,
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        return out ? spans_.size() : 0;
    }

  private:
    double nowMs() const { return msSince(epoch_); }

    const Clock::time_point epoch_ = Clock::now();
    std::atomic<int> nextId_{0};
    mutable std::mutex mu_;  // guards spans_
    std::vector<Span> spans_;
};

/** What the direct-call pass keeps of one point. */
struct DirectPoint
{
    RunResult result;
    Count rawStalls = 0;          ///< PE RaW stall cycles (cycle GCN)
    std::size_t peakNetwork = 0;  ///< Omega buffer peak (cycle GCN)
    Count kernelIterations = 0;   ///< BFS levels + PageRank iterations
    Count rowsMoved = 0;          ///< churn boundary migrations
    awb::dynamic::DeltaCsrStats delta;  ///< the runner's DeltaCsr
    awb::DenseMatrix gcnOutput;
    awb::kernels::BfsResult bfs;
    awb::kernels::PagerankResult pagerank;
};

bool
usesCycleEngine(SweepMode m)
{
    return m == SweepMode::Cycle || m == SweepMode::ChurnGcn ||
           m == SweepMode::Bfs || m == SweepMode::Pagerank;
}

awb::AccelConfig
configFor(const SweepPoint &p, const SweepOptions &o)
{
    const awb::DatasetSpec &spec = awb::findDataset(p.dataset);
    awb::AccelConfig cfg = awb::configureForPolicy(
        awb::PolicyRegistry::instance().get(p.policy), p.pes,
        awb::hopBase(spec));
    cfg.engine = o.engine;
    cfg.platform = p.platform;
    cfg.chips = p.chips;
    return cfg;
}

/** The churn run exec::run performs for a point; mirrored here so the
 *  traced run can step its epochs one by one. */
void
churnSetup(const SweepPoint &p, const awb::CscMatrix &a,
           awb::dynamic::ChurnParams &churn,
           awb::dynamic::DynamicOptions &opts)
{
    churn.seed = p.seed;
    opts.fidelity = awb::dynamic::DynamicFidelity::Cycle;
    opts.epochs = 6;
    opts.eventsPerEpoch = std::max<Count>(16, a.nnz() / 20);
    opts.denseCols = 8;
    opts.seed = p.seed;
}

template <typename Layers>
void
foldLayers(RunResult &out, const Layers &layers)
{
    for (const auto &layer : layers) {
        awb::exec::fold(out, layer.xw);
        awb::exec::fold(out, layer.ax);
    }
}

/**
 * One point through each layer's public entry point, as exec::run
 * dispatches it, with a span around every layer call. The result must
 * equal the sweep's outcome for the same point field for field.
 */
DirectPoint
runDirect(const SweepPoint &p, const SweepOptions &o, Tracer &tr)
{
    namespace exec = awb::exec;
    DirectPoint d;
    RunResult &out = d.result;
    Tracer::Scope root(tr, "exec.point", p.index);
    const awb::DatasetSpec &spec = awb::findDataset(p.dataset);
    const awb::AccelConfig cfg = configFor(p, o);
    std::string err = cfg.validate(p.mode != SweepMode::Model);
    if (!err.empty()) {
        out.error = err;
        return d;
    }
    switch (p.mode) {
      case SweepMode::Model: {
        auto prof = exec::cachedProfile(spec, p.seed, o.scale);
        if (p.chips > 1) {
            auto a = exec::cachedAdjacency(spec, p.seed, o.scale);
            std::optional<awb::ShardedPerfGcnResult> sr;
            {
                Tracer::Scope s(tr, "accel.scaleout", p.index, root.id());
                sr = awb::modelGcnSharded(cfg, *prof, a.get());
            }
            out.cycles = sr->result.totalCycles;
            out.tasks = sr->result.totalTasks;
            foldLayers(out, sr->result.layers);
            exec::fold(out, sr->scaleout);
            break;
        }
        std::optional<awb::PerfGcnResult> res;
        {
            Tracer::Scope s(tr, "accel.perf_model", p.index, root.id());
            res = awb::PerfModel(cfg).runGcn(*prof);
        }
        out.cycles = res->totalCycles;
        out.tasks = res->totalTasks;
        foldLayers(out, res->layers);
        break;
      }
      case SweepMode::Cycle: {
        auto ds = exec::cachedDataset(spec, p.seed, o.scale);
        awb::GcnModel model = awb::makeGcnModel(ds->spec.f1, ds->spec.f2,
                                                ds->spec.f3, p.seed);
        std::optional<awb::GcnRunResult> res;
        {
            Tracer::Scope s(tr, "accel.run_gcn", p.index, root.id());
            res = awb::runGcn(cfg, *ds, model);
        }
        for (const auto &layer : res->layers) {
            exec::fold(out, layer.xw);
            exec::fold(out, layer.ax);
            for (const auto &hop : layer.extraHops) exec::fold(out, hop);
            for (const awb::SpmmStats *s : {&layer.xw, &layer.ax}) {
                d.rawStalls += s->rawStalls;
                d.peakNetwork = std::max(d.peakNetwork, s->peakNetworkDepth);
            }
        }
        out.cycles = res->totalCycles;
        out.tasks = res->totalTasks;
        d.gcnOutput = std::move(res->output);
        break;
      }
      case SweepMode::ChurnGcn: {
        auto a = exec::cachedAdjacency(spec, p.seed, o.scale);
        awb::dynamic::ChurnParams churn;
        awb::dynamic::DynamicOptions dopts;
        churnSetup(p, *a, churn, dopts);
        std::optional<awb::dynamic::DynamicRunner> runner;
        {
            Tracer::Scope s(tr, "dynamic.runner_init", p.index, root.id());
            runner.emplace(cfg, *a, churn, dopts);
        }
        for (Count e = 0; e < dopts.epochs; ++e) {
            Tracer::Scope s(tr, "dynamic.epoch", p.index, root.id());
            runner->step();
        }
        exec::fold(out, runner->stats());
        d.rowsMoved = runner->stats().rowsMoved;
        d.delta = runner->matrix().stats();
        break;
      }
      case SweepMode::Bfs: {
        auto a = exec::cachedAdjacency(spec, p.seed, o.scale);
        std::optional<awb::kernels::BfsRun> run;
        {
            Tracer::Scope s(tr, "kernels.bfs", p.index, root.id());
            run = awb::kernels::runBfs(cfg, *a, /*source=*/0);
        }
        exec::fold(out, run->stats);
        d.kernelIterations = run->result.iterations;
        d.bfs = std::move(run->result);
        break;
      }
      case SweepMode::Pagerank: {
        auto a = exec::cachedAdjacency(spec, p.seed, o.scale);
        std::optional<awb::kernels::PagerankRun> run;
        {
            Tracer::Scope s(tr, "kernels.pagerank", p.index, root.id());
            run = awb::kernels::runPagerank(cfg, *a, /*damping=*/0.85,
                                            /*tol=*/1e-6, /*maxIters=*/200);
        }
        exec::fold(out, run->stats);
        d.kernelIterations = run->result.iterations;
        d.pagerank = std::move(run->result);
        break;
      }
      default:
        out.error = "mode '" + awb::exec::modeName(p.mode) +
                    "' has no traced path";
        return d;
    }
    exec::finalize(out, cfg);
    return d;
}

/** Functional reference outputs, one per dataset (every point of a
 *  dataset shares its input and, for GCN, its weights). */
struct References
{
    std::map<std::string, awb::DenseMatrix> gcn;
    std::map<std::string, awb::kernels::BfsResult> bfs;
    std::map<std::string, awb::kernels::PagerankResult> pagerank;
};

References
buildReferences(const Workload &w, Tracer &tr)
{
    namespace exec = awb::exec;
    References refs;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const SweepPoint &p = w.points[i];
        const double scale = w.grids[w.gridOf[i]].scale;
        const awb::DatasetSpec &spec = awb::findDataset(p.dataset);
        if (p.mode == SweepMode::Cycle && !refs.gcn.count(p.dataset)) {
            auto ds = exec::cachedDataset(spec, p.seed, scale);
            awb::GcnModel model = awb::makeGcnModel(
                ds->spec.f1, ds->spec.f2, ds->spec.f3, p.seed);
            Tracer::Scope s(tr, "gcn.reference", i);
            refs.gcn[p.dataset] = awb::inferGcn(*ds, model).output;
        } else if (p.mode == SweepMode::Bfs && !refs.bfs.count(p.dataset)) {
            auto a = exec::cachedAdjacency(spec, p.seed, scale);
            Tracer::Scope s(tr, "kernels.reference", i);
            refs.bfs[p.dataset] = awb::kernels::bfsReference(*a, 0);
        } else if (p.mode == SweepMode::Pagerank &&
                   !refs.pagerank.count(p.dataset)) {
            auto a = exec::cachedAdjacency(spec, p.seed, scale);
            Tracer::Scope s(tr, "kernels.reference", i);
            refs.pagerank[p.dataset] =
                awb::kernels::pagerankReference(*a, 0.85, 1e-6, 200);
        }
    }
    return refs;
}

/** Largest |engine - reference| a GCN output may show: float
 *  accumulation order differs between the engine and inferGcn. */
double
gcnTolerance(const awb::DenseMatrix &ref)
{
    double peak = 0.0;
    for (awb::Value v : ref.data())
        peak = std::max(peak, std::fabs(static_cast<double>(v)));
    return 2e-3 * std::max(1.0, peak);
}

} // namespace

TracedRun
runTraced(const Workload &w, const std::string &span_file)
{
    namespace exec = awb::exec;
    TracedRun run;
    Tracer tr;
    exec::WorkloadCache &wl = exec::WorkloadCache::instance();
    awb::RoundStateCache &rc = awb::RoundStateCache::instance();
    const std::size_t n = w.points.size();
    std::mutex problems_mutex;  // guards run.problems
    auto problem = [&](const std::string &msg) {
        std::lock_guard<std::mutex> lock(problems_mutex);
        run.problems.push_back(msg);
    };

    // A. The untraced sweep, cold, as the untraced benchmark runs it:
    // the reference for the cross-check, the digest and the overhead.
    clearCaches();
    const std::uint64_t misses0 = wl.misses();
    for (const Input &in : requiredInputs(w)) {
        Tracer::Scope s(tr, "graph.synth", kNoPoint);
        buildInput(in);
    }
    const std::uint64_t built = wl.misses() - misses0;
    const std::uint64_t hits0 = wl.hits();
    const std::uint64_t timedMisses0 = wl.misses();
    Clock::time_point t0 = Clock::now();
    std::vector<SweepOutcome> sweep = runWorkload(w);
    serializeWorkload(w, sweep);
    const double untracedMs = msSince(t0);
    run.gate = gate(sweep);
    const std::uint64_t sweepDigest = modelDigest(sweep);

    // B. Each point through the sweep's per-point entry (exec::run):
    // its time beyond the execution segment exec::run times itself
    // (RunResult::wallMs) is the dispatch cost.
    rc.clear();
    std::vector<double> dispatch(n, 0.0);
    forEachPoint(n, [&](std::size_t i) {
        SweepOutcome r;
        Clock::time_point s0 = Clock::now();
        {
            Tracer::Scope s(tr, "exec.run", i);
            r = awb::driver::runSweepPoint(w.points[i], w.grids[w.gridOf[i]]);
        }
        dispatch[i] = msSince(s0) - r.wallMs;
        if (!sameResult(r, sweep[i]))
            problem("exec::run differs from the sweep at point " +
                    std::to_string(i));
    });

    // C. The direct-call pass, under the cache state the sweep saw.
    rc.clear();
    const std::uint64_t rcHits0 = rc.hits(), rcMisses0 = rc.misses();
    std::vector<DirectPoint> direct(n);
    t0 = Clock::now();
    forEachPoint(n, [&](std::size_t i) {
        direct[i] = runDirect(w.points[i], w.grids[w.gridOf[i]], tr);
    });
    std::vector<SweepOutcome> traced(n);
    for (std::size_t i = 0; i < n; ++i) {
        static_cast<RunResult &>(traced[i]) = direct[i].result;
        traced[i].point = w.points[i];
    }
    {
        Tracer::Scope s(tr, "driver.json", kNoPoint);
        serializeWorkload(w, traced);
    }
    const double tracedMs = msSince(t0);
    const std::uint64_t rcHits = rc.hits() - rcHits0;
    const std::uint64_t rcLookups = rcHits + rc.misses() - rcMisses0;
    const std::uint64_t timedMisses = wl.misses() - timedMisses0;
    const std::uint64_t timedHits = wl.hits() - hits0;
    run.digest = modelDigest(traced);
    for (std::size_t i = 0; i < n; ++i)
        if (!sameResult(direct[i].result, sweep[i]))
            problem("direct layer calls differ from the sweep at point " +
                    std::to_string(i) + " (" + w.points[i].dataset + " " +
                    w.points[i].policy + " " +
                    awb::exec::modeName(w.points[i].mode) + ")");
    if (run.digest != sweepDigest)
        problem("traced model digest " + hex(run.digest) +
                " != untraced " + hex(sweepDigest));
    if (timedMisses != 0)
        problem(std::to_string(timedMisses) +
                " WorkloadCache misses after set-up");

    // D. Functional checks and the standalone layer probes; outside
    // every timed pass above.
    const References refs = buildReferences(w, tr);
    double maxDiff = 0.0;
    Count applied = 0, relocations = 0, compactions = 0;
    std::mutex probe_mutex;  // guards maxDiff, applied, relocations,
                             // compactions
    forEachPoint(n, [&](std::size_t i) {
        const SweepPoint &p = w.points[i];
        const SweepOptions &o = w.grids[w.gridOf[i]];
        const DirectPoint &d = direct[i];
        if (!usesCycleEngine(p.mode) || !d.result.ok) return;
        const awb::DatasetSpec &spec = awb::findDataset(p.dataset);
        const awb::AccelConfig cfg = configFor(p, o);
        auto a = exec::cachedAdjacency(spec, p.seed, o.scale);
        const std::vector<Count> aRows = a->rowNnz();
        std::vector<Count> xRows;
        if (p.mode == SweepMode::Cycle) {
            auto ds = exec::cachedDataset(spec, p.seed, o.scale);
            for (awb::Index r = 0; r < ds->features.rows(); ++r)
                xRows.push_back(ds->features.rowNnz(r));
        }
        {
            Tracer::Scope s(tr, "accel.partition", i);
            auto policy = awb::makePartitionPolicy(cfg);
            policy->build(a->rows(), aRows, cfg);
            if (!xRows.empty())
                policy->build(static_cast<awb::Index>(xRows.size()), xRows,
                              cfg);
        }

        std::string bad;
        double diff = 0.0;
        Count ok_events = 0;
        awb::dynamic::DeltaCsrStats ds_stats;
        if (p.mode == SweepMode::Cycle) {
            const awb::DenseMatrix &ref = refs.gcn.at(p.dataset);
            diff = d.gcnOutput.maxAbsDiff(ref);
            if (!(diff <= gcnTolerance(ref)))
                bad = "runGcn output differs from inferGcn by " +
                      std::to_string(diff);
        } else if (p.mode == SweepMode::Bfs) {
            const auto &ref = refs.bfs.at(p.dataset);
            if (d.bfs.parent != ref.parent || d.bfs.depth != ref.depth ||
                d.bfs.iterations != ref.iterations)
                bad = "runBfs differs from bfsReference";
        } else if (p.mode == SweepMode::Pagerank) {
            const auto &ref = refs.pagerank.at(p.dataset);
            if (d.pagerank.scores != ref.scores ||
                d.pagerank.iterations != ref.iterations ||
                d.pagerank.converged != ref.converged)
                bad = "runPagerank differs from pagerankReference";
        } else {
            // The write side alone: the runner's churn batches applied
            // to a standalone DeltaCsr.
            awb::dynamic::ChurnParams churn;
            awb::dynamic::DynamicOptions dopts;
            churnSetup(p, *a, churn, dopts);
            awb::dynamic::EdgeChurnStream stream(*a, churn);
            awb::dynamic::DeltaCsr delta(*a);
            for (Count e = 0; e < dopts.epochs; ++e) {
                auto batch = stream.nextBatch(dopts.eventsPerEpoch);
                Tracer::Scope s(tr, "dynamic.delta_apply", i);
                ok_events += delta.apply(batch);
            }
            ds_stats = delta.stats();
            const auto &rs = d.delta;
            if (ds_stats.inserts != rs.inserts ||
                ds_stats.deletes != rs.deletes ||
                ds_stats.rejected != rs.rejected ||
                ds_stats.relocations != rs.relocations ||
                ds_stats.compactions != rs.compactions)
                bad = "standalone DeltaCsr stats differ from the runner's";
        }
        if (!bad.empty()) problem(bad + " at point " + std::to_string(i));
        std::lock_guard<std::mutex> lock(probe_mutex);
        maxDiff = std::max(maxDiff, diff);
        applied += ok_events;
        relocations += ds_stats.relocations;
        compactions += ds_stats.compactions;
    });

    run.spans = tr.write(span_file, w.name);
    if (run.spans == 0) problem("could not write spans to " + span_file);

    // Per-layer tallies over the direct pass.
    Count rounds = 0, simulated = 0, rawStalls = 0, sync = 0, switched = 0;
    Count engineTasks = 0, iterations = 0, rowsMoved = 0;
    std::size_t peakTq = 0, peakNet = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const DirectPoint &d = direct[i];
        if (usesCycleEngine(w.points[i].mode)) {
            rounds += d.result.rounds;
            simulated += d.result.roundsSimulated;
            engineTasks += d.result.tasks;
        }
        rawStalls += d.rawStalls;
        peakNet = std::max(peakNet, d.peakNetwork);
        peakTq = std::max(peakTq, d.result.peakTqDepth);
        sync += d.result.syncCycles;
        switched += d.result.rowsSwitched;
        iterations += d.kernelIterations;
        rowsMoved += d.rowsMoved;
    }
    double dispatchMs = 0.0;
    for (double v : dispatch) dispatchMs += v;
    const double engineMs = tr.totalMs("accel.run_gcn") +
                            tr.totalMs("dynamic.epoch") +
                            tr.totalMs("kernels.bfs") +
                            tr.totalMs("kernels.pagerank");
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto d = [](Count v) { return static_cast<double>(v); };
    run.metrics = {
        {"graph.synth_ms", tr.totalMs("graph.synth"), "ms"},
        {"graph.inputs_built", d(static_cast<Count>(built)), "count"},
        {"exec.workload_cache.hits", d(static_cast<Count>(timedHits)),
         "count"},
        {"exec.workload_cache.misses", d(static_cast<Count>(timedMisses)),
         "count"},
        {"exec.dispatch_ms", dispatchMs, "ms"},
        {"driver.json_ms", tr.totalMs("driver.json"), "ms"},
        {"accel.perf_model_ms", tr.totalMs("accel.perf_model"), "ms"},
        {"accel.scaleout_ms", tr.totalMs("accel.scaleout"), "ms"},
        {"accel.partition_ms", tr.totalMs("accel.partition"), "ms"},
        {"accel.engine_ms", engineMs, "ms"},
        {"accel.engine_ns_per_task", ratio(engineMs * 1e6, d(engineTasks)),
         "ns"},
        {"accel.rounds", d(rounds), "count"},
        {"accel.rounds_simulated", d(simulated), "count"},
        {"accel.replay_ratio", ratio(d(rounds - simulated), d(rounds)),
         "ratio"},
        {"accel.round_cache.hit_ratio",
         ratio(static_cast<double>(rcHits), static_cast<double>(rcLookups)),
         "ratio"},
        {"pe.raw_stall_cycles", d(rawStalls), "cycles"},
        {"pe.peak_tq_depth", static_cast<double>(peakTq), "entries"},
        {"omega.peak_depth", static_cast<double>(peakNet), "entries"},
        {"accel.sync_cycles", d(sync), "cycles"},
        {"accel.rows_switched", d(switched), "count"},
        {"kernels.bfs_ms", tr.totalMs("kernels.bfs"), "ms"},
        {"kernels.pagerank_ms", tr.totalMs("kernels.pagerank"), "ms"},
        {"kernels.iterations", d(iterations), "count"},
        {"dynamic.epoch_ms", tr.totalMs("dynamic.epoch"), "ms"},
        {"dynamic.delta_apply_ms", tr.totalMs("dynamic.delta_apply"), "ms"},
        {"dynamic.events_applied", d(applied), "count"},
        {"dynamic.relocations", d(relocations), "count"},
        {"dynamic.compactions", d(compactions), "count"},
        {"dynamic.rows_moved", d(rowsMoved), "count"},
        {"gcn.reference_ms", tr.totalMs("gcn.reference"), "ms"},
        {"kernels.ref_ms", tr.totalMs("kernels.reference"), "ms"},
        {"gcn.max_abs_diff", maxDiff, "abs"},
        {"trace.overhead_ms", tracedMs - untracedMs, "ms"},
    };
    return run;
}

} // namespace perfbench
