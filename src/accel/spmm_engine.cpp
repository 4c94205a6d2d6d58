#include "accel/spmm_engine.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "accel/local_share.hpp"
#include "accel/omega.hpp"
#include "accel/pe.hpp"
#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "kernels/spgemm.hpp"
#include "sparse/convert.hpp"

namespace awb {

namespace {

/**
 * Column-major non-zero stream of the sparse operand. Stream position f
 * is CSC position f, so rows and values are read from the CSC arrays in
 * place and only each non-zero's column is materialised.
 */
struct NnzStream
{
    const std::vector<Index> &row;
    const std::vector<Value> &val;
    std::vector<Index> col;
    Count rows;

    explicit NnzStream(const CscMatrix &a)
        : row(a.rowId()), val(a.val()), rows(a.rows())
    {
        col.reserve(static_cast<std::size_t>(a.nnz()));
        for (Index j = 0; j < a.cols(); ++j) {
            const auto begin = a.colPtr()[static_cast<std::size_t>(j)];
            const auto end = a.colPtr()[static_cast<std::size_t>(j) + 1];
            col.insert(col.end(), static_cast<std::size_t>(end - begin), j);
        }
    }

    /** Column-major element index of non-zero f (the TDQ-1 scan). */
    Count
    densePos(std::size_t f) const
    {
        return static_cast<Count>(col[f]) * rows + row[f];
    }

    std::size_t size() const { return col.size(); }
};

// RoundRecord (the per-round outcome) and RoundEntryKey now live in
// accel/round_cache.hpp so outcomes can be shared across engine runs;
// this run-local memo keeps the batched engine's within-run fast path
// lock-free. Hash-bucketed, exact key compare on hit.
using RoundCache = std::unordered_map<
    std::uint64_t,
    std::vector<std::pair<RoundEntryKey,
                          std::shared_ptr<const RoundRecord>>>>;

Count
rawStallsOf(const std::vector<Pe> &pes)
{
    Count total = 0;
    for (const Pe &pe : pes) total += pe.rawStallCycles();
    return total;
}

} // namespace

SpmmEngine::SpmmEngine(const AccelConfig &cfg) : cfg_(cfg)
{
    std::string err = cfg.validate();
    if (!err.empty()) fatal("SpmmEngine: " + err);
}

SpmmResult
SpmmEngine::execute(const CscMatrix &a, const DenseMatrix &b, TdqKind kind,
                    RowPartition &partition)
{
    if (a.cols() != b.rows()) panic("SpmmEngine: inner dimensions differ");
    if (partition.rows() != a.rows())
        panic("SpmmEngine: partition rows != operand rows");
    if (kind == TdqKind::Tdq2OmegaCsc) {
        std::string err =
            cfg_.validate(/*cycle_accurate_tdq2=*/true);
        if (!err.empty()) fatal("SpmmEngine: " + err);
    }

    const int P = cfg_.numPes;
    const Index m = a.rows();
    const Index K = b.cols();
    const bool batched = cfg_.engine == EngineKind::Batched;
    DenseMatrix c(m, K);

    NnzStream stream(a);
    const auto n_flits = stream.size();
    const std::vector<Count> row_work = a.rowNnz();

    // --- Build the PE array.
    std::vector<Pe> pes;
    pes.reserve(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p)
        pes.emplace_back(p, cfg_.numQueuesPerPe, cfg_.queueDepth,
                         cfg_.macLatency);

    LocalSharer sharer(cfg_.sharingHops);
    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg_, m);
    // Off-chip memory model (DESIGN.md §8): per-round traffic is
    // accounted on every platform; a bandwidth-bound cycle floor is
    // composed roofline-style only when the platform is constrained, so
    // the unconstrained default is a provable timing no-op.
    const MemoryModel mem(findPlatform(cfg_.platform),
                          policyClockMhz(cfg_));
    const MemoryTraffic steady_traffic =
        mem.roundTraffic(a.nnz(), a.cols(), m);
    Count pending_migration_bytes = 0;
    const bool use_net = (kind == TdqKind::Tdq2OmegaCsc) && P >= 2;
    OmegaNetwork net(std::max(P, 2), cfg_.omegaBufferDepth,
                     cfg_.networkSpeedup);

    // TDQ-1 scan width: fetch enough dense elements per cycle that, with
    // evenly distributed non-zeros, about P non-zeros emerge per cycle
    // (paper: N_PE / (1 - sparsity) data forwarded per cycle).
    const double elems = static_cast<double>(a.rows()) *
                         static_cast<double>(a.cols());
    const double density =
        elems > 0.0 ? static_cast<double>(a.nnz()) / elems : 1.0;
    Count scan_width = cfg_.streamWidth > 0
        ? cfg_.streamWidth
        : static_cast<Count>(static_cast<double>(P) /
                             std::max(density, 1e-9));
    scan_width = std::max<Count>(scan_width, 1);
    const int inject_width = cfg_.injectWidth > 0 ? cfg_.injectWidth : P;
    const int accept_cap = cfg_.receivePorts;

    // Per-round bookkeeping reused across rounds.
    std::vector<Value> acc(static_cast<std::size_t>(m), Value(0));
    std::vector<int> accepted(static_cast<std::size_t>(P), 0);
    // TDQ-2: the CSC array is banked P ways; each bank feeds one network
    // port through its own read pointer, so a congested path stalls only
    // its own lane (port p streams flits p, p+P, ...).
    std::vector<std::size_t> port_next(static_cast<std::size_t>(P));
    // Dispatch-side (home-attributed) task counters: what the PESM's
    // distribution-point monitors see. Local sharing smears *execution*
    // across neighbours, but the switchable quantity is row ownership,
    // so hotspot/coldspot identification must rank by home load.
    std::vector<Count> home_tasks(static_cast<std::size_t>(P), 0);

    SpmmStats stats;
    stats.rounds = K;
    stats.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    Cycle now = 0;
    RoundCache cache;
    // Cross-run shared cache (DESIGN.md §13): both engines consult it
    // when enabled; outcomes are bit-identical to fresh simulation, so
    // every model statistic is unchanged either way.
    RoundStateCache &shared = RoundStateCache::instance();
    const bool shared_on = shared.enabled();
    const std::uint64_t shared_ctx =
        shared_on ? roundContextDigest(a, cfg_, static_cast<int>(kind)) : 0;
    // CSR twin of `a`, built lazily for the first replayed round: per-row
    // ascending-column accumulation order equals the column-major stream
    // order restricted to that row, so the row-parallel replay is
    // bit-identical to the serial stream-order replay it replaces.
    CsrMatrix a_csr;
    bool have_csr = false;
    std::size_t peak_queue = 0;
    std::size_t peak_net = 0;

    /**
     * Event-step one round: the exact per-cycle dynamics both engines
     * share. Mutates pes/net/now/acc and returns the round's outcome.
     * The task *values* (b's column k) only flow into `acc`; every
     * control decision reads structure alone, so the outcome — timing
     * included — depends only on the RoundEntryKey captured by the
     * caller.
     */
    auto simulateRound = [&](Index k) -> RoundRecord {
        std::fill(home_tasks.begin(), home_tasks.end(), 0);
        for (auto &pe : pes) pe.resetRound();
        net.resetRoundPeak();
        // Align the fabric's input-priority toggles with the global
        // cycle parity (identity under pure event stepping; required
        // after the batched engine replayed rounds without ticking).
        if (use_net) net.setArbitration(static_cast<int>(now & 1));
        const Count raw_before = rawStallsOf(pes);
        const Cycle round_start = now;
        std::size_t next = 0;    // next flit to dispatch (TDQ-1)
        Count scan_pos = 0;      // TDQ-1 dense-scan pointer
        std::size_t lanes_done = 0;
        for (int p = 0; p < P; ++p) {
            port_next[static_cast<std::size_t>(p)] =
                static_cast<std::size_t>(p);
            if (static_cast<std::size_t>(p) >= n_flits) ++lanes_done;
        }

        // Deliver a task to its (possibly shared) destination.
        auto deliver = [&](std::size_t f) -> bool {
            int home = partition.owner(stream.row[f]);
            int target;
            if (sharer.hops() > 0) {
                target = sharer.choose(home, pes, &accepted, accept_cap);
            } else {
                target =
                    (accepted[static_cast<std::size_t>(home)] < accept_cap &&
                     pes[static_cast<std::size_t>(home)].canAccept())
                        ? home : -1;
            }
            if (target < 0) return false;
            Task t{stream.row[f], stream.val[f],
                   b.at(stream.col[f], k), home};
            if (!pes[static_cast<std::size_t>(target)].enqueue(t))
                return false;
            ++accepted[static_cast<std::size_t>(target)];
            ++home_tasks[static_cast<std::size_t>(home)];
            return true;
        };

        while (true) {
            // 1. PEs consume (they see queue state from previous cycles).
            // An idle PE's tick is a no-op up to MAC retirement, which
            // its next real tick performs first (Pe::pending()).
            for (auto &pe : pes)
                if (pe.pending() != 0) pe.tick(now, acc);

            std::fill(accepted.begin(), accepted.end(), 0);

            // 2. Network advances and delivers into queues.
            if (use_net) {
                net.tick(now, [&](const Flit &flit, int out_port) {
                    if (out_port != flit.destPe)
                        panic("Omega routing invariant violated");
                    int home = flit.destPe;
                    int target;
                    if (sharer.hops() > 0) {
                        target = sharer.choose(home, pes, &accepted,
                                               accept_cap);
                    } else {
                        target = accepted[static_cast<std::size_t>(home)] <
                                 accept_cap ? home : -1;
                    }
                    if (target < 0) return false;
                    if (!pes[static_cast<std::size_t>(target)]
                             .enqueue(flit.task))
                        return false;
                    ++accepted[static_cast<std::size_t>(target)];
                    ++home_tasks[static_cast<std::size_t>(home)];
                    return true;
                });
            }

            // 3. Injection.
            if (kind == TdqKind::Tdq1DenseScan) {
                scan_pos += scan_width;
                while (next < n_flits && stream.densePos(next) < scan_pos) {
                    if (!deliver(next)) {
                        // Backpressure: the scan stalls at this element.
                        scan_pos = stream.densePos(next);
                        break;
                    }
                    ++next;
                }
            } else if (use_net) {
                int injected = 0;
                for (int p = 0; p < P && injected < inject_width; ++p) {
                    std::size_t &cursor =
                        port_next[static_cast<std::size_t>(p)];
                    if (cursor >= n_flits) continue;
                    int home = partition.owner(stream.row[cursor]);
                    Flit flit{Task{stream.row[cursor], stream.val[cursor],
                                   b.at(stream.col[cursor], k), home},
                              home};
                    if (!net.inject(flit, p)) continue;
                    cursor += static_cast<std::size_t>(P);
                    ++injected;
                    if (cursor >= n_flits) ++lanes_done;
                }
            } else {
                // Degenerate single-PE TDQ-2: direct delivery.
                int injected = 0;
                while (next < n_flits && injected < inject_width) {
                    if (!deliver(next)) break;
                    ++next;
                    ++injected;
                }
            }

            ++now;
            if (now - round_start > cfg_.maxCyclesPerRound)
                panic("SpmmEngine: round watchdog expired");

            bool stream_done = use_net
                ? (lanes_done == static_cast<std::size_t>(P))
                : (next >= n_flits);
            if (!stream_done) continue;
            if (use_net && !net.empty()) continue;
            bool done = true;
            for (const auto &pe : pes) {
                if (!pe.drained(now)) {
                    done = false;
                    break;
                }
            }
            if (done) break;
        }

        RoundRecord out;
        out.roundCycles = now - round_start;
        out.homeTasks = home_tasks;
        out.execTasks.resize(static_cast<std::size_t>(P));
        out.drainCycle.resize(static_cast<std::size_t>(P));
        out.arbiterAfter.resize(static_cast<std::size_t>(P));
        for (int p = 0; p < P; ++p) {
            const Pe &pe = pes[static_cast<std::size_t>(p)];
            Count t = pe.tasksThisRound();
            out.execTasks[static_cast<std::size_t>(p)] = t;
            // homeTasks: home-attributed load (what row swaps change);
            // drainCycle: the actual empty-signal timing the PESM sees.
            Cycle last = pe.lastBusyCycle();
            out.drainCycle[static_cast<std::size_t>(p)] =
                (t > 0 && last >= round_start) ? last - round_start : 0;
            out.arbiterAfter[static_cast<std::size_t>(p)] =
                pe.arbiterCursor();
        }
        out.rawStallDelta = rawStallsOf(pes) - raw_before;
        for (const Pe &pe : pes)
            out.peakQueue = std::max(out.peakQueue, pe.roundPeakQueueDepth());
        out.peakNet = use_net ? net.roundPeakBufferDepth() : 0;
        return out;
    };

    for (Index k = 0; k < K; ++k) {
        std::fill(acc.begin(), acc.end(), Value(0));

        // Replay a previously simulated round whose entry state matches,
        // instead of event-stepping it again: the batched engine's
        // within-run memo first, then (both engines) the process-wide
        // shared cache.
        std::shared_ptr<const RoundRecord> from_local;
        std::shared_ptr<const RoundRecord> from_shared;
        std::uint64_t h = 0;
        RoundEntryKey key;
        if (batched || shared_on) {
            key.owners = partition.owners();
            key.arbiter.resize(static_cast<std::size_t>(P));
            for (int p = 0; p < P; ++p)
                key.arbiter[static_cast<std::size_t>(p)] =
                    pes[static_cast<std::size_t>(p)].arbiterCursor();
            key.netParity = use_net ? static_cast<int>(now & 1) : 0;
            h = hashRoundKey(key);
        }
        if (batched) {
            auto bucket = cache.find(h);
            if (bucket != cache.end()) {
                for (const auto &entry : bucket->second) {
                    if (entry.first == key) {
                        from_local = entry.second;
                        break;
                    }
                }
            }
        }
        if (from_local == nullptr && shared_on)
            from_shared = shared.lookup(shared_ctx, key);

        std::shared_ptr<const RoundRecord> record;
        if (from_local != nullptr || from_shared != nullptr) {
            record = from_local != nullptr ? from_local : from_shared;
            // Advance the whole round from its cached aggregates. The
            // functional column is accumulated per output row over the
            // CSR twin (the timing replay has no per-task schedule to
            // follow), so replayed columns may differ from an uncached
            // event run in floating-point rounding only. Rows are
            // independent: deterministic chunked parallelism keeps the
            // result bit-identical at any thread count.
            if (!have_csr) {
                a_csr = cscToCsr(a);
                have_csr = true;
            }
            const std::vector<Count> &rp = a_csr.rowPtr();
            const std::vector<Index> &ci = a_csr.colId();
            const std::vector<Value> &av = a_csr.val();
            auto body = [&](std::size_t rb, std::size_t re) {
                for (std::size_t r = rb; r < re; ++r) {
                    Value s = Value(0);
                    for (Count p = rp[r]; p < rp[r + 1]; ++p) {
                        s += av[static_cast<std::size_t>(p)] *
                             b.at(ci[static_cast<std::size_t>(p)], k);
                    }
                    acc[r] = s;
                }
            };
            const std::size_t rows = static_cast<std::size_t>(m);
            if (shouldParallelize(static_cast<std::uint64_t>(n_flits)))
                parallelFor(rows, std::max<std::size_t>(1, rows / 256),
                            body);
            else
                body(0, rows);
            for (int p = 0; p < P; ++p)
                pes[static_cast<std::size_t>(p)].setArbiterCursor(
                    record->arbiterAfter[static_cast<std::size_t>(p)]);
            now += record->roundCycles;
        } else {
            record = std::make_shared<RoundRecord>(simulateRound(k));
            if (shared_on) shared.insert(shared_ctx, key, record);
        }
        // Charged per round the within-run memo missed (every round for
        // the event engine), so counts are bit-identical with the shared
        // cache on or off.
        if (from_local == nullptr) {
            ++stats.roundsSimulated;
            if (batched) cache[h].emplace_back(key, record);
        }
        const RoundRecord *outcome = record.get();
        peak_queue = std::max(peak_queue, outcome->peakQueue);
        peak_net = std::max(peak_net, outcome->peakNet);

        // Commit the finished column of C.
        for (Index r = 0; r < m; ++r)
            c.at(r, k) = acc[static_cast<std::size_t>(r)];

        // Memory-traffic accounting and roofline composition: row
        // migrations ordered after round k-1 must land before this
        // round's stream, so their bytes bill to this round's floor.
        MemoryTraffic round_traffic = steady_traffic;
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        stats.traffic += round_traffic;
        Cycle round_duration = outcome->roundCycles;
        const Cycle bw_floor = mem.floorCycles(round_traffic.total());
        stats.memoryCycles += bw_floor;
        if (bw_floor > round_duration) {
            // Bandwidth-bound: the PE array idles until the off-chip
            // stream completes; the round stretches to the floor.
            ++stats.bwBoundRounds;
            now += bw_floor - round_duration;
            round_duration = bw_floor;
        }

        // Round accounting.
        stats.roundCycles.push_back(round_duration);
        Count round_tasks = 0;
        for (int p = 0; p < P; ++p) {
            Count t = outcome->execTasks[static_cast<std::size_t>(p)];
            round_tasks += t;
            stats.perPeTasks[static_cast<std::size_t>(p)] += t;
        }
        stats.tasks += round_tasks;
        stats.idealCycles += (round_tasks + P - 1) / P;
        stats.rawStalls += outcome->rawStallDelta;

        // The rebalance policy auto-tunes the row map for the next round
        // (the paper's remote switching, or any registered alternative);
        // it digests the same observation whether the round was stepped
        // or replayed, so auto-tuning trajectories are engine-invariant.
        if (k + 1 < K) {
            RoundObservation obs;
            obs.peWork = outcome->homeTasks;
            obs.drainCycle = outcome->drainCycle;
            // Rows the policy moves must migrate between the PEs'
            // banks before the next round streams them. Static policies
            // never move rows, so skip the owner snapshot for them.
            std::vector<int> owners_before;
            if (rebalance->wantsObservations())
                owners_before = partition.owners();
            rebalance->observeAndAdjust(obs, row_work, partition);
            if (!owners_before.empty())
                pending_migration_bytes = mem.migrationBytes(
                    owners_before, partition.owners(), row_work);
        }
    }

    stats.cycles = now;
    stats.syncCycles = std::max<Cycle>(0, stats.cycles - stats.idealCycles);
    stats.utilization = stats.cycles > 0
        ? static_cast<double>(stats.tasks) /
          (static_cast<double>(P) * static_cast<double>(stats.cycles))
        : 0.0;
    stats.rowsSwitched = rebalance->totalRowsMoved();
    stats.convergedRound = rebalance->convergedRound();
    // Peaks are folded from per-round maxima carried in each
    // RoundRecord: a replayed round repeats the dynamics of the
    // simulated round that produced its cache entry (possibly in a
    // previous engine run), so its recorded peaks are exactly what
    // event-stepping it would have raised.
    stats.peakQueueDepth = peak_queue;
    if (use_net) stats.peakNetworkDepth = peak_net;
    return {std::move(c), std::move(stats)};
}

SpgemmResult
SpmmEngine::executeSpgemm(const CscMatrix &a, const CscMatrix &b,
                          RowPartition &partition)
{
    if (a.cols() != b.rows())
        panic("SpmmEngine: spgemm inner dimensions differ");
    if (partition.rows() != a.rows())
        panic("SpmmEngine: partition rows != operand rows");
    {
        std::string err = cfg_.validate(/*cycle_accurate_tdq2=*/true);
        if (!err.empty()) fatal("SpmmEngine: " + err);
    }

    const int P = cfg_.numPes;
    const Index m = a.rows();
    const Index K = b.cols();

    // Functional result from the golden kernel — the event schedule only
    // prices the work, so values are engine-invariant by construction.
    CscMatrix c = kernels::spgemm(a, b);
    const std::vector<Count> row_work = a.rowNnz();

    std::vector<Pe> pes;
    pes.reserve(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p)
        pes.emplace_back(p, cfg_.numQueuesPerPe, cfg_.queueDepth,
                         cfg_.macLatency);

    LocalSharer sharer(cfg_.sharingHops);
    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg_, m);
    const MemoryModel mem(findPlatform(cfg_.platform),
                          policyClockMhz(cfg_));
    Count pending_migration_bytes = 0;
    const bool use_net = P >= 2;
    OmegaNetwork net(std::max(P, 2), cfg_.omegaBufferDepth,
                     cfg_.networkSpeedup);
    const int inject_width = cfg_.injectWidth > 0 ? cfg_.injectWidth : P;
    const int accept_cap = cfg_.receivePorts;

    // Per-round scratch. `acc` sinks the PE MACs (the schedule needs a
    // target); the committed values come from the kernel result above.
    std::vector<Value> acc(static_cast<std::size_t>(m), Value(0));
    std::vector<int> accepted(static_cast<std::size_t>(P), 0);
    std::vector<Count> home_tasks(static_cast<std::size_t>(P), 0);
    std::vector<std::size_t> port_next(static_cast<std::size_t>(P));
    std::vector<Index> r_row;
    std::vector<Value> r_aval;
    std::vector<Value> r_bval;

    SpmmStats stats;
    stats.rounds = K;
    stats.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    Cycle now = 0;

    for (Index k = 0; k < K; ++k) {
        // Round-k task stream: B column k's non-zeros in ascending inner
        // index j, each expanding A column j — the sparse B-column fetch
        // that replaces execute()'s dense-column stream.
        r_row.clear();
        r_aval.clear();
        r_bval.clear();
        const Count b_begin = b.colPtr()[static_cast<std::size_t>(k)];
        const Count b_end = b.colPtr()[static_cast<std::size_t>(k) + 1];
        for (Count p = b_begin; p < b_end; ++p) {
            const Index j = b.rowId()[static_cast<std::size_t>(p)];
            const Value bv = b.val()[static_cast<std::size_t>(p)];
            for (Count q = a.colPtr()[static_cast<std::size_t>(j)];
                 q < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++q) {
                r_row.push_back(a.rowId()[static_cast<std::size_t>(q)]);
                r_aval.push_back(a.val()[static_cast<std::size_t>(q)]);
                r_bval.push_back(bv);
            }
        }
        const std::size_t n_flits = r_row.size();

        // Event-step the round: the same TDQ-2 per-cycle dynamics as
        // execute()'s simulateRound. Both engines step every round —
        // the task stream changes with k, so there is no recurring
        // entry state the batched engine could replay.
        std::fill(acc.begin(), acc.end(), Value(0));
        std::fill(home_tasks.begin(), home_tasks.end(), 0);
        for (auto &pe : pes) pe.resetRound();
        if (use_net) net.setArbitration(static_cast<int>(now & 1));
        const Count raw_before = rawStallsOf(pes);
        const Cycle round_start = now;
        std::size_t next = 0;
        std::size_t lanes_done = 0;
        for (int p = 0; p < P; ++p) {
            port_next[static_cast<std::size_t>(p)] =
                static_cast<std::size_t>(p);
            if (static_cast<std::size_t>(p) >= n_flits) ++lanes_done;
        }

        auto deliver = [&](std::size_t f) -> bool {
            int home = partition.owner(r_row[f]);
            int target;
            if (sharer.hops() > 0) {
                target = sharer.choose(home, pes, &accepted, accept_cap);
            } else {
                target =
                    (accepted[static_cast<std::size_t>(home)] < accept_cap &&
                     pes[static_cast<std::size_t>(home)].canAccept())
                        ? home : -1;
            }
            if (target < 0) return false;
            Task t{r_row[f], r_aval[f], r_bval[f], home};
            if (!pes[static_cast<std::size_t>(target)].enqueue(t))
                return false;
            ++accepted[static_cast<std::size_t>(target)];
            ++home_tasks[static_cast<std::size_t>(home)];
            return true;
        };

        while (true) {
            for (auto &pe : pes)
                if (pe.pending() != 0) pe.tick(now, acc);

            std::fill(accepted.begin(), accepted.end(), 0);

            if (use_net) {
                net.tick(now, [&](const Flit &flit, int out_port) {
                    if (out_port != flit.destPe)
                        panic("Omega routing invariant violated");
                    int home = flit.destPe;
                    int target;
                    if (sharer.hops() > 0) {
                        target = sharer.choose(home, pes, &accepted,
                                               accept_cap);
                    } else {
                        target = accepted[static_cast<std::size_t>(home)] <
                                 accept_cap ? home : -1;
                    }
                    if (target < 0) return false;
                    if (!pes[static_cast<std::size_t>(target)]
                             .enqueue(flit.task))
                        return false;
                    ++accepted[static_cast<std::size_t>(target)];
                    ++home_tasks[static_cast<std::size_t>(home)];
                    return true;
                });
                int injected = 0;
                for (int p = 0; p < P && injected < inject_width; ++p) {
                    std::size_t &cursor =
                        port_next[static_cast<std::size_t>(p)];
                    if (cursor >= n_flits) continue;
                    int home = partition.owner(r_row[cursor]);
                    Flit flit{Task{r_row[cursor], r_aval[cursor],
                                   r_bval[cursor], home},
                              home};
                    if (!net.inject(flit, p)) continue;
                    cursor += static_cast<std::size_t>(P);
                    ++injected;
                    if (cursor >= n_flits) ++lanes_done;
                }
            } else {
                int injected = 0;
                while (next < n_flits && injected < inject_width) {
                    if (!deliver(next)) break;
                    ++next;
                    ++injected;
                }
            }

            ++now;
            if (now - round_start > cfg_.maxCyclesPerRound)
                panic("SpmmEngine: round watchdog expired");

            bool stream_done = use_net
                ? (lanes_done == static_cast<std::size_t>(P))
                : (next >= n_flits);
            if (!stream_done) continue;
            if (use_net && !net.empty()) continue;
            bool done = true;
            for (const auto &pe : pes) {
                if (!pe.drained(now)) {
                    done = false;
                    break;
                }
            }
            if (done) break;
        }
        ++stats.roundsSimulated;

        // Traffic accounting and roofline composition (DESIGN.md §11):
        // the A-task stream, the fetched B column, and the written
        // sparse C column (values + row ids), plus any migration bytes
        // billed from the previous round's rebalance.
        const Count out_nnz =
            c.colPtr()[static_cast<std::size_t>(k) + 1] -
            c.colPtr()[static_cast<std::size_t>(k)];
        MemoryTraffic round_traffic = mem.spgemmRoundTraffic(
            static_cast<Count>(n_flits), b_end - b_begin, out_nnz);
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        stats.traffic += round_traffic;
        Cycle round_duration = now - round_start;
        const Cycle bw_floor = mem.floorCycles(round_traffic.total());
        stats.memoryCycles += bw_floor;
        if (bw_floor > round_duration) {
            ++stats.bwBoundRounds;
            now += bw_floor - round_duration;
            round_duration = bw_floor;
        }

        stats.roundCycles.push_back(round_duration);
        Count round_tasks = 0;
        RoundObservation obs;
        obs.peWork = home_tasks;
        obs.drainCycle.resize(static_cast<std::size_t>(P));
        for (int p = 0; p < P; ++p) {
            const Pe &pe = pes[static_cast<std::size_t>(p)];
            Count t = pe.tasksThisRound();
            round_tasks += t;
            stats.perPeTasks[static_cast<std::size_t>(p)] += t;
            Cycle last = pe.lastBusyCycle();
            obs.drainCycle[static_cast<std::size_t>(p)] =
                (t > 0 && last >= round_start) ? last - round_start : 0;
        }
        stats.tasks += round_tasks;
        stats.idealCycles += (round_tasks + P - 1) / P;
        stats.rawStalls += rawStallsOf(pes) - raw_before;

        // Observe after every round, the last included: frontier kernels
        // chain 1-round SpGEMMs over a carried partition, so this is the
        // only observation those rounds would ever produce.
        std::vector<int> owners_before;
        if (rebalance->wantsObservations())
            owners_before = partition.owners();
        rebalance->observeAndAdjust(obs, row_work, partition);
        if (!owners_before.empty()) {
            const Count mig = mem.migrationBytes(
                owners_before, partition.owners(), row_work);
            if (k + 1 < K) {
                pending_migration_bytes = mig;
            } else {
                // No next round to bill the floor to; account the bytes.
                stats.traffic.migrationBytes += mig;
            }
        }
    }

    stats.cycles = now;
    stats.syncCycles = std::max<Cycle>(0, stats.cycles - stats.idealCycles);
    stats.utilization = stats.cycles > 0
        ? static_cast<double>(stats.tasks) /
          (static_cast<double>(P) * static_cast<double>(stats.cycles))
        : 0.0;
    stats.rowsSwitched = rebalance->totalRowsMoved();
    stats.convergedRound = rebalance->convergedRound();
    for (const auto &pe : pes) {
        stats.peakQueueDepth =
            std::max(stats.peakQueueDepth, pe.peakQueueDepth());
    }
    if (use_net) stats.peakNetworkDepth = net.peakBufferDepth();
    return {std::move(c), std::move(stats)};
}

} // namespace awb
