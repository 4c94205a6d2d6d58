#include "accel/spmm_engine.hpp"

#include <algorithm>
#include <memory>
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

/** Cache-context kind tag of SpGEMM rounds: one past the TdqKinds, so a
 *  SpGEMM stream never shares entries with an SPMM over the same A. */
constexpr int kSpgemmStreamTag = 2;

/**
 * TDQ-2 flit source: the column-major non-zero stream of the sparse
 * operand against the dense operand's column `k`. Stream position f is
 * CSC position f, so rows and values are read from the CSC arrays in
 * place and only each non-zero's column is materialised.
 */
struct CscStream
{
    static constexpr bool kDenseScan = false;

    const std::vector<Index> &rows;
    const std::vector<Value> &vals;
    std::vector<Index> col;
    const DenseMatrix &b;
    Index k = 0;  ///< the round's dense column

    CscStream(const CscMatrix &a, const DenseMatrix &dense)
        : rows(a.rowId()), vals(a.val()), b(dense)
    {
        col.reserve(static_cast<std::size_t>(a.nnz()));
        for (Index j = 0; j < a.cols(); ++j) {
            const auto begin = a.colPtr()[static_cast<std::size_t>(j)];
            const auto end = a.colPtr()[static_cast<std::size_t>(j) + 1];
            col.insert(col.end(), static_cast<std::size_t>(end - begin), j);
        }
    }

    std::size_t size() const { return col.size(); }
    Index row(std::size_t f) const { return rows[f]; }

    Task
    task(std::size_t f, int home) const
    {
        return {rows[f], vals[f], b.at(col[f], k), home};
    }
};

/**
 * TDQ-1 flit source: the same stream, fetched by a dense-format scan of
 * `scanWidth` elements per cycle.
 */
struct DenseScan : CscStream
{
    static constexpr bool kDenseScan = true;

    Count denseRows;
    Count scanWidth;

    DenseScan(const CscMatrix &a, const DenseMatrix &dense, Count width)
        : CscStream(a, dense), denseRows(a.rows()), scanWidth(width)
    {
    }

    /** Column-major element index of non-zero f. */
    Count
    densePos(std::size_t f) const
    {
        return static_cast<Count>(col[f]) * denseRows + rows[f];
    }
};

/**
 * SpGEMM flit source: round k expands B column k's non-zeros, in
 * ascending inner index j, against A column j. `segPtr` delimits the
 * expanded columns the way a CSC column pointer does, so a frontier
 * holding every j streams exactly A's own CSC sequence.
 */
struct ExpandedColumn
{
    static constexpr bool kDenseScan = false;

    std::vector<Index> rows;
    std::vector<Value> aval;
    std::vector<Value> bval;
    std::vector<Count> segPtr;

    void
    expand(const CscMatrix &a, const CscMatrix &b, Index k)
    {
        rows.clear();
        aval.clear();
        bval.clear();
        segPtr.assign(1, 0);
        for (Count p = b.colPtr()[static_cast<std::size_t>(k)];
             p < b.colPtr()[static_cast<std::size_t>(k) + 1]; ++p) {
            const Index j = b.rowId()[static_cast<std::size_t>(p)];
            const Value bv = b.val()[static_cast<std::size_t>(p)];
            for (Count q = a.colPtr()[static_cast<std::size_t>(j)];
                 q < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++q) {
                rows.push_back(a.rowId()[static_cast<std::size_t>(q)]);
                aval.push_back(a.val()[static_cast<std::size_t>(q)]);
                bval.push_back(bv);
            }
            segPtr.push_back(static_cast<Count>(rows.size()));
        }
    }

    std::size_t size() const { return rows.size(); }
    Index row(std::size_t f) const { return rows[f]; }

    Task
    task(std::size_t f, int home) const
    {
        return {rows[f], aval[f], bval[f], home};
    }
};

// The batched engine's within-run memo: lock-free, hash-bucketed, exact
// key compare on hit. Entries are shared with the process-wide cache.
using RoundMemo = std::unordered_map<
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

/**
 * The one copy of the per-round dynamics (DESIGN.md §6, §13), shared by
 * execute() and executeSpgemm(): the PE array, the Omega fabric, local
 * sharing and the rebalance loop around them, advanced one round at a
 * time from a flit source. Every round's outcome is a RoundRecord —
 * replayed when its entry state recurs, event-stepped otherwise — and
 * every statistic is folded from that record, so downstream a replayed
 * round and a stepped one are indistinguishable.
 */
class RoundStepper
{
  public:
    /**
     * @param row_work      per-row work the policy observes against
     * @param rounds        rounds the caller will step (stats.rounds)
     * @param use_net       route flits through the Omega fabric
     * @param memo          keep the within-run memo (batched execute())
     * @param observe_last  let the policy observe the final round too
     */
    RoundStepper(const AccelConfig &cfg, RowPartition &partition,
                 std::vector<Count> row_work, Count rounds, bool use_net,
                 bool memo, bool observe_last)
        : cfg_(cfg), partition_(partition), rowWork_(std::move(row_work)),
          P_(cfg.numPes), useNet_(use_net), memoOn_(memo),
          observeLast_(observe_last), sharer_(cfg.sharingHops),
          rebalance_(makeRebalancePolicy(cfg, partition.rows())),
          mem_(findPlatform(cfg.platform), policyClockMhz(cfg)),
          ledger_(partition),
          net_(std::max(cfg.numPes, 2), cfg.omegaBufferDepth,
               cfg.networkSpeedup),
          injectWidth_(cfg.injectWidth > 0 ? cfg.injectWidth
                                           : cfg.numPes),
          acc_(static_cast<std::size_t>(partition.rows()), Value(0)),
          accepted_(static_cast<std::size_t>(P_), 0),
          homeTasks_(static_cast<std::size_t>(P_), 0),
          portNext_(static_cast<std::size_t>(P_)),
          shared_(RoundStateCache::instance()),
          sharedOn_(shared_.enabled())
    {
        pes_.reserve(static_cast<std::size_t>(P_));
        for (int p = 0; p < P_; ++p)
            pes_.emplace_back(p, cfg.numQueuesPerPe, cfg.queueDepth,
                              cfg.macLatency);
        stats_.rounds = rounds;
        stats_.perPeTasks.assign(static_cast<std::size_t>(P_), 0);
    }

    /** Whether next() consults the process-wide cache (callers skip the
     *  context digest when it does not). */
    bool sharedCacheOn() const { return sharedOn_; }
    const MemoryModel &memory() const { return mem_; }
    /** The functional column the PEs accumulate into. */
    std::vector<Value> &acc() { return acc_; }

    /**
     * The next round's outcome. Replays the within-run memo's record
     * (when kept), else the process-wide cache's record under `context`,
     * else event-steps the round and inserts it; `replayed` says whether
     * `acc()` still needs the round's functional column.
     */
    template <class Source>
    std::shared_ptr<const RoundRecord>
    next(const Source &src, std::uint64_t context, bool &replayed)
    {
        std::shared_ptr<const RoundRecord> from_local;
        std::uint64_t h = 0;
        RoundEntryKey key;
        if (memoOn_ || sharedOn_) {
            key.owners = partition_.owners();
            key.arbiter.resize(static_cast<std::size_t>(P_));
            for (int p = 0; p < P_; ++p)
                key.arbiter[static_cast<std::size_t>(p)] =
                    pes_[static_cast<std::size_t>(p)].arbiterCursor();
            key.netParity = useNet_ ? static_cast<int>(now_ & 1) : 0;
            h = hashRoundKey(key);
        }
        if (memoOn_) {
            auto bucket = memo_.find(h);
            if (bucket != memo_.end()) {
                for (const auto &entry : bucket->second) {
                    if (entry.first == key) {
                        from_local = entry.second;
                        break;
                    }
                }
            }
        }
        std::shared_ptr<const RoundRecord> record =
            from_local != nullptr || !sharedOn_
                ? from_local : shared_.lookup(context, key);
        replayed = record != nullptr;
        if (replayed) {
            // Advance the whole round from its aggregates.
            for (int p = 0; p < P_; ++p)
                pes_[static_cast<std::size_t>(p)].setArbiterCursor(
                    record->arbiterAfter[static_cast<std::size_t>(p)]);
            now_ += record->roundCycles;
        } else {
            record = std::make_shared<RoundRecord>(step(src));
            if (sharedOn_) shared_.insert(context, key, record);
        }
        // Charged per round the within-run memo missed (every round
        // without one), so counts are bit-identical with the shared
        // cache on or off.
        if (from_local == nullptr) {
            ++stats_.roundsSimulated;
            if (memoOn_) memo_[h].emplace_back(key, record);
        }
        peakQueue_ = std::max(peakQueue_, record->peakQueue);
        peakNet_ = std::max(peakNet_, record->peakNet);
        return record;
    }

    /**
     * Fold one round's outcome into the statistics. `traffic` is the
     * round's off-chip traffic; migration ordered by the previous
     * round's rebalance is billed here, and the round stretches to its
     * bandwidth floor when that exceeds its compute cycles (DESIGN.md
     * §8). The rebalance policy then observes the round, unless it is
     * the last and the stepper does not observe the last round.
     */
    void
    fold(const RoundRecord &rec, MemoryTraffic traffic, bool last)
    {
        traffic.migrationBytes = pendingMigrationBytes_;
        pendingMigrationBytes_ = 0;
        stats_.traffic += traffic;
        Cycle round_duration = rec.roundCycles;
        const Cycle bw_floor = mem_.floorCycles(traffic.total());
        stats_.memoryCycles += bw_floor;
        if (bw_floor > round_duration) {
            // Bandwidth-bound: the PE array idles until the off-chip
            // stream completes; the round stretches to the floor.
            ++stats_.bwBoundRounds;
            now_ += bw_floor - round_duration;
            round_duration = bw_floor;
        }

        stats_.roundCycles.push_back(round_duration);
        Count round_tasks = 0;
        for (int p = 0; p < P_; ++p) {
            Count t = rec.execTasks[static_cast<std::size_t>(p)];
            round_tasks += t;
            stats_.perPeTasks[static_cast<std::size_t>(p)] += t;
        }
        stats_.tasks += round_tasks;
        stats_.idealCycles += (round_tasks + P_ - 1) / P_;
        stats_.rawStalls += rec.rawStallDelta;

        if (last && !observeLast_) return;
        // The policy digests the same observation whether the round was
        // stepped or replayed, so tuning trajectories are engine- and
        // cache-invariant. Rows it moves must migrate between the PEs'
        // banks before the next round streams them.
        RoundObservation obs;
        obs.peWork = rec.homeTasks;
        obs.drainCycle = rec.drainCycle;
        rebalance_->observeAndAdjust(obs, rowWork_, partition_);
        const Count mig = ledger_.bill(mem_, partition_, rowWork_);
        if (last)
            stats_.traffic.migrationBytes += mig;  // no next round's floor
        else
            pendingMigrationBytes_ = mig;
    }

    /** The run's statistics; the stepper is spent afterwards. */
    SpmmStats
    finish()
    {
        stats_.cycles = now_;
        stats_.syncCycles =
            std::max<Cycle>(0, stats_.cycles - stats_.idealCycles);
        stats_.utilization = stats_.cycles > 0
            ? static_cast<double>(stats_.tasks) /
              (static_cast<double>(P_) * static_cast<double>(stats_.cycles))
            : 0.0;
        stats_.rowsSwitched = rebalance_->totalRowsMoved();
        stats_.convergedRound = rebalance_->convergedRound();
        // Peaks are folded from per-round maxima carried in each
        // RoundRecord: queues and fabric drain at every round barrier,
        // so the lifetime peak is the max of the round peaks, and a
        // replayed round repeats exactly the dynamics that recorded it.
        stats_.peakQueueDepth = peakQueue_;
        if (useNet_) stats_.peakNetworkDepth = peakNet_;
        return std::move(stats_);
    }

  private:
    /**
     * Hand `t` to its home PE or, with local sharing, the least-loaded
     * neighbour. `check_room` (direct delivery) refuses a full home PE
     * up front; the fabric's sink lets enqueue() refuse it instead.
     */
    bool
    deliver(const Task &t, bool check_room)
    {
        const int home = t.homePe;
        int target;
        if (sharer_.hops() > 0) {
            target = sharer_.choose(home, pes_, &accepted_, cfg_.receivePorts);
        } else {
            target =
                accepted_[static_cast<std::size_t>(home)] <
                            cfg_.receivePorts &&
                        (!check_room ||
                         pes_[static_cast<std::size_t>(home)].canAccept())
                    ? home : -1;
        }
        if (target < 0) return false;
        if (!pes_[static_cast<std::size_t>(target)].enqueue(t)) return false;
        ++accepted_[static_cast<std::size_t>(target)];
        ++homeTasks_[static_cast<std::size_t>(home)];
        return true;
    }

    /**
     * Event-step one round. The task values only flow into `acc_`;
     * every control decision reads the flit rows and the entry state,
     * so the outcome — timing included — depends only on the entry key
     * and the source's row sequence (DESIGN.md §6).
     */
    template <class Source>
    RoundRecord
    step(const Source &src)
    {
        const std::size_t n_flits = src.size();
        std::fill(acc_.begin(), acc_.end(), Value(0));
        std::fill(homeTasks_.begin(), homeTasks_.end(), 0);
        for (auto &pe : pes_) pe.resetRound();
        net_.resetRoundPeak();
        // Align the fabric's input-priority toggles with the global
        // cycle parity (identity under pure event stepping; required
        // after rounds were replayed without ticking).
        if (useNet_) net_.setArbitration(static_cast<int>(now_ & 1));
        const Count raw_before = rawStallsOf(pes_);
        const Cycle round_start = now_;
        std::size_t next = 0;    // next flit to dispatch (direct, TDQ-1)
        Count scan_pos = 0;      // TDQ-1 dense-scan pointer
        std::size_t lanes_done = 0;
        // TDQ-2: the stream is banked P ways; each bank feeds one
        // network port through its own read pointer, so a congested
        // path stalls only its own lane (port p streams p, p+P, ...).
        for (int p = 0; p < P_; ++p) {
            portNext_[static_cast<std::size_t>(p)] =
                static_cast<std::size_t>(p);
            if (static_cast<std::size_t>(p) >= n_flits) ++lanes_done;
        }

        while (true) {
            // 1. PEs consume (they see queue state from previous cycles).
            // An idle PE's tick is a no-op up to MAC retirement, which
            // its next real tick performs first (Pe::pending()).
            for (auto &pe : pes_)
                if (pe.pending() != 0) pe.tick(now_, acc_);

            std::fill(accepted_.begin(), accepted_.end(), 0);

            // 2. Network advances and delivers into queues.
            if (useNet_) {
                net_.tick(now_, [&](const Flit &flit, int out_port) {
                    if (out_port != flit.destPe)
                        panic("Omega routing invariant violated");
                    return deliver(flit.task, /*check_room=*/false);
                });
            }

            // 3. Injection.
            if constexpr (Source::kDenseScan) {
                scan_pos += src.scanWidth;
                while (next < n_flits && src.densePos(next) < scan_pos) {
                    if (!deliver(src.task(next,
                                          partition_.owner(src.row(next))),
                                 /*check_room=*/true)) {
                        // Backpressure: the scan stalls at this element.
                        scan_pos = src.densePos(next);
                        break;
                    }
                    ++next;
                }
            } else if (useNet_) {
                int injected = 0;
                for (int p = 0; p < P_ && injected < injectWidth_; ++p) {
                    std::size_t &cursor =
                        portNext_[static_cast<std::size_t>(p)];
                    if (cursor >= n_flits) continue;
                    const int home = partition_.owner(src.row(cursor));
                    if (!net_.inject(Flit{src.task(cursor, home), home}, p))
                        continue;
                    cursor += static_cast<std::size_t>(P_);
                    ++injected;
                    if (cursor >= n_flits) ++lanes_done;
                }
            } else {
                // Degenerate single-PE TDQ-2: direct delivery.
                int injected = 0;
                while (next < n_flits && injected < injectWidth_) {
                    if (!deliver(src.task(next,
                                          partition_.owner(src.row(next))),
                                 /*check_room=*/true))
                        break;
                    ++next;
                    ++injected;
                }
            }

            ++now_;
            if (now_ - round_start > cfg_.maxCyclesPerRound)
                panic("SpmmEngine: round watchdog expired");

            bool stream_done = useNet_
                ? (lanes_done == static_cast<std::size_t>(P_))
                : (next >= n_flits);
            if (!stream_done) continue;
            if (useNet_ && !net_.empty()) continue;
            bool done = true;
            for (const auto &pe : pes_) {
                if (!pe.drained(now_)) {
                    done = false;
                    break;
                }
            }
            if (done) break;
        }

        RoundRecord out;
        out.roundCycles = now_ - round_start;
        out.homeTasks = homeTasks_;
        out.execTasks.resize(static_cast<std::size_t>(P_));
        out.drainCycle.resize(static_cast<std::size_t>(P_));
        out.arbiterAfter.resize(static_cast<std::size_t>(P_));
        for (int p = 0; p < P_; ++p) {
            const Pe &pe = pes_[static_cast<std::size_t>(p)];
            Count t = pe.tasksThisRound();
            out.execTasks[static_cast<std::size_t>(p)] = t;
            // homeTasks: home-attributed load (what row swaps change);
            // drainCycle: the actual empty-signal timing the PESM sees.
            Cycle last = pe.lastBusyCycle();
            out.drainCycle[static_cast<std::size_t>(p)] =
                (t > 0 && last >= round_start) ? last - round_start : 0;
            out.arbiterAfter[static_cast<std::size_t>(p)] =
                pe.arbiterCursor();
            out.peakQueue = std::max(out.peakQueue, pe.roundPeakQueueDepth());
        }
        out.rawStallDelta = rawStallsOf(pes_) - raw_before;
        out.peakNet = useNet_ ? net_.roundPeakBufferDepth() : 0;
        return out;
    }

    const AccelConfig &cfg_;
    RowPartition &partition_;
    const std::vector<Count> rowWork_;
    const int P_;
    const bool useNet_;
    const bool memoOn_;
    const bool observeLast_;
    std::vector<Pe> pes_;
    LocalSharer sharer_;
    std::unique_ptr<RebalancePolicy> rebalance_;
    const MemoryModel mem_;
    MigrationLedger ledger_;
    OmegaNetwork net_;
    const int injectWidth_;
    std::vector<Value> acc_;
    std::vector<int> accepted_;
    // Dispatch-side (home-attributed) task counters: what the PESM's
    // distribution-point monitors see. Local sharing smears *execution*
    // across neighbours, but the switchable quantity is row ownership,
    // so hotspot/coldspot identification must rank by home load.
    std::vector<Count> homeTasks_;
    std::vector<std::size_t> portNext_;
    RoundMemo memo_;
    RoundStateCache &shared_;
    const bool sharedOn_;
    SpmmStats stats_;
    Cycle now_ = 0;
    Count pendingMigrationBytes_ = 0;
    std::size_t peakQueue_ = 0;
    std::size_t peakNet_ = 0;
};

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
    DenseMatrix c(m, K);
    RoundStepper stepper(cfg_, partition, a.rowNnz(), K,
                         /*use_net=*/kind == TdqKind::Tdq2OmegaCsc && P >= 2,
                         /*memo=*/cfg_.engine == EngineKind::Batched,
                         /*observe_last=*/false);
    std::vector<Value> &acc = stepper.acc();
    // Off-chip memory model (DESIGN.md §8): per-round traffic is
    // accounted on every platform; a bandwidth-bound cycle floor is
    // composed roofline-style only when the platform is constrained, so
    // the unconstrained default is a provable timing no-op.
    const MemoryTraffic steady_traffic =
        stepper.memory().roundTraffic(a.nnz(), a.cols(), m);
    // Cross-run shared cache (DESIGN.md §13): outcomes are bit-identical
    // to fresh simulation, so every model statistic is unchanged either
    // way. Every round streams the same structure.
    const std::uint64_t context = stepper.sharedCacheOn()
        ? roundContextDigest(cfg_, static_cast<int>(kind), a.rows(),
                             a.colPtr(), a.rowId())
        : 0;
    // CSR twin of `a`, built lazily for the first replayed round: per-row
    // ascending-column accumulation order equals the column-major stream
    // order restricted to that row, so the row-parallel replay is
    // bit-identical to the serial stream-order replay it replaces.
    CsrMatrix a_csr;
    bool have_csr = false;

    auto rounds = [&](auto &src) {
        for (Index k = 0; k < K; ++k) {
            src.k = k;
            bool replayed = false;
            std::shared_ptr<const RoundRecord> record =
                stepper.next(src, context, replayed);
            if (replayed) {
                // The functional column is accumulated per output row
                // over the CSR twin (the timing replay has no per-task
                // schedule to follow), so replayed columns may differ
                // from an uncached event run in floating-point rounding
                // only. Rows are independent: deterministic chunked
                // parallelism keeps the result bit-identical at any
                // thread count.
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
                if (shouldParallelize(static_cast<std::uint64_t>(a.nnz())))
                    parallelFor(rows, std::max<std::size_t>(1, rows / 256),
                                body);
                else
                    body(0, rows);
            }
            // Commit the finished column of C.
            for (Index r = 0; r < m; ++r)
                c.at(r, k) = acc[static_cast<std::size_t>(r)];
            stepper.fold(*record, steady_traffic, k + 1 == K);
        }
    };
    if (kind == TdqKind::Tdq1DenseScan) {
        // TDQ-1 scan width: fetch enough dense elements per cycle that,
        // with evenly distributed non-zeros, about P non-zeros emerge
        // per cycle (paper: N_PE / (1 - sparsity) data forwarded per
        // cycle).
        const double elems = static_cast<double>(a.rows()) *
                             static_cast<double>(a.cols());
        const double density =
            elems > 0.0 ? static_cast<double>(a.nnz()) / elems : 1.0;
        Count scan_width = cfg_.streamWidth > 0
            ? cfg_.streamWidth
            : static_cast<Count>(static_cast<double>(P) /
                                 std::max(density, 1e-9));
        DenseScan src(a, b, std::max<Count>(scan_width, 1));
        rounds(src);
    } else {
        CscStream src(a, b);
        rounds(src);
    }
    return {std::move(c), stepper.finish()};
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

    const Index K = b.cols();
    // Functional result from the golden kernel — the schedule only
    // prices the work, so values are engine- and cache-invariant by
    // construction and `acc` is a mere sink for the PE MACs.
    CscMatrix c = kernels::spgemm(a, b);
    RoundStepper stepper(cfg_, partition, a.rowNnz(), K,
                         /*use_net=*/cfg_.numPes >= 2, /*memo=*/false,
                         /*observe_last=*/true);

    ExpandedColumn src;
    for (Index k = 0; k < K; ++k) {
        src.expand(a, b, k);
        // A round's dynamics read its entry state and its flit rows
        // alone, so the cache context digests this round's stream, not
        // all of A: a small BFS frontier costs O(frontier work) to key,
        // and every iteration whose stream and entry state recur (all of
        // PageRank under a static policy) replays.
        const std::uint64_t context = stepper.sharedCacheOn()
            ? roundContextDigest(cfg_, kSpgemmStreamTag, a.rows(),
                                 src.segPtr, src.rows)
            : 0;
        bool replayed = false;
        std::shared_ptr<const RoundRecord> record =
            stepper.next(src, context, replayed);

        // Traffic (DESIGN.md §11): the A-task stream, the fetched B
        // column, and the written sparse C column (values + row ids).
        const Count b_nnz = b.colPtr()[static_cast<std::size_t>(k) + 1] -
                            b.colPtr()[static_cast<std::size_t>(k)];
        const Count out_nnz = c.colPtr()[static_cast<std::size_t>(k) + 1] -
                              c.colPtr()[static_cast<std::size_t>(k)];
        // Observe after every round, the last included: frontier kernels
        // chain 1-round SpGEMMs over a carried partition, so this is the
        // only observation those rounds would ever produce.
        stepper.fold(*record,
                     stepper.memory().spgemmRoundTraffic(
                         static_cast<Count>(src.size()), b_nnz, out_nnz),
                     k + 1 == K);
    }
    return {std::move(c), stepper.finish()};
}

} // namespace awb
