/**
 * @file
 * Multi-stage Omega network used by TDQ-2 to route non-zero elements of
 * the ultra-sparse CSC operand to the PE owning their row (paper §3.3).
 *
 * log2(P) stages of 2x2 routers, perfect-shuffle wiring between stages,
 * one input buffer per router port ("Each router in the Omega-network has
 * a local buffer in case the buffer of the next stage is saturated").
 * Chosen over a crossbar for area: P/2·log2(P) routers vs P^2 crosspoints.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "accel/task.hpp"

namespace awb {

/** Blocking multistage interconnect with per-port input buffers. */
class OmegaNetwork
{
  public:
    /**
     * @param ports         network width (power of two, == PE count)
     * @param buffer_depth  per-router-port buffer capacity (>= 1)
     * @param speedup       flits one router output can pass per PE cycle
     *                      (the switch fabric runs faster than the PE
     *                      clock so routing conflicts do not starve the
     *                      PEs; the paper sizes the network to match the
     *                      PEs' aggregate consumption)
     */
    OmegaNetwork(int ports, int buffer_depth, int speedup = 2);

    /**
     * Offer a flit at input port `src`. Returns false when the stage-0
     * buffer on that path is full (caller retries next cycle).
     */
    bool inject(const Flit &flit, int src);

    /**
     * One clock: stages advance in back-to-front order, each router moving
     * at most one flit per output. Flits leaving the final stage are
     * handed to `sink(const Flit &, int out_port) -> bool`; if the sink
     * rejects (PE queue full), the flit stays buffered. The sink is a
     * template parameter so the caller's delivery code inlines into the
     * routing loop.
     */
    template <typename Sink>
    void tick(Cycle now, Sink &&sink);

    /** No flits anywhere in the fabric. */
    bool empty() const;

    int ports() const { return ports_; }
    int stages() const { return stages_; }

    /**
     * Force every router's input-priority toggle to `parity`. The toggle
     * flips once per tick() for every router, so after t ticks from reset
     * it equals t mod 2 array-wide; between rounds it is the only network
     * state besides the (empty) buffers. The round-batched engine calls
     * this with the global cycle parity before event-stepping a round so
     * that skipped (replayed) rounds leave the fabric in the same state
     * the event engine would have (DESIGN.md §6). A no-op under pure
     * event stepping, where the toggle already equals the cycle parity.
     */
    void setArbitration(int parity);

    /** Largest buffer occupancy seen anywhere (area model input). */
    std::size_t
    peakBufferDepth() const
    {
        return std::max(peak_, roundPeak_);
    }

    /**
     * Largest buffer occupancy since the last resetRoundPeak(). The
     * fabric is empty at every round boundary and occupancy peaks only
     * move on push, so the lifetime peak equals the max of these
     * round-local peaks; cached round replay restores it exactly
     * (DESIGN.md §13).
     */
    std::size_t roundPeakBufferDepth() const { return roundPeak_; }

    void
    resetRoundPeak()
    {
        peak_ = std::max(peak_, roundPeak_);
        roundPeak_ = 0;
    }

    Count flitsDelivered() const { return delivered_; }
    /** Moves that found their output busy or the next buffer full. A
     *  congestion indicator, not an exact attempt count: provably futile
     *  re-attempts (a pass that cannot make progress) are skipped. */
    Count blockedMoves() const { return blocked_; }

  private:
    /** Perfect-shuffle permutation (rotate-left on log2(P) bits). */
    int
    shuffle(int port) const
    {
        return ((port << 1) | (port >> (stages_ - 1))) & (ports_ - 1);
    }

    /** Flat index of the input buffer of stage `s` at port `p`. */
    std::size_t
    buffer(int s, int p) const
    {
        return static_cast<std::size_t>(s) *
                   static_cast<std::size_t>(ports_) +
               static_cast<std::size_t>(p);
    }

    /** Slot `i` (0 .. depth-1) of buffer `b`'s ring. */
    std::size_t
    slot(std::size_t b, int i) const
    {
        return b * static_cast<std::size_t>(bufferDepth_) +
               static_cast<std::size_t>(i);
    }

    const Flit &
    front(std::size_t b) const
    {
        return slots_[slot(b, head_[b])];
    }

    /** Append to buffer `b`; false (and nothing stored) when full. */
    bool
    push(std::size_t b, const Flit &flit)
    {
        int n = size_[b];
        if (n == bufferDepth_) return false;
        int tail = head_[b] + n;
        if (tail >= bufferDepth_) tail -= bufferDepth_;
        slots_[slot(b, tail)] = flit;
        size_[b] = ++n;
        roundPeak_ = std::max(roundPeak_, static_cast<std::size_t>(n));
        return true;
    }

    void
    pop(std::size_t b)
    {
        if (++head_[b] == bufferDepth_) head_[b] = 0;
        --size_[b];
    }

    int ports_;
    int stages_;
    int bufferDepth_;
    int speedup_;
    /**
     * Every router input buffer as one fixed-capacity ring: buffer
     * b = s·ports + p owns slots [b·depth, (b+1)·depth) of `slots_`,
     * its oldest flit at offset head_[b] and size_[b] flits resident.
     */
    std::vector<Flit> slots_;
    std::vector<int> head_;
    std::vector<int> size_;
    /**
     * Input-priority toggle shared by every router. Each router used to
     * carry its own bit, but all of them start at 0 and flip exactly
     * once per tick(), so the array was always uniformly equal to the
     * tick parity; one bit models it exactly and lets tick() skip
     * vacant routers without desynchronizing arbitration state.
     */
    int rrTick_ = 0;
    /** Flits resident per stage; lets tick() skip empty stages and
     *  makes empty() O(stages). */
    std::vector<Count> stageCount_;
    std::size_t roundPeak_ = 0;
    /** Lifetime peak over rounds already closed by resetRoundPeak(). */
    std::size_t peak_ = 0;
    Count delivered_ = 0;
    Count blocked_ = 0;
};

template <typename Sink>
void
OmegaNetwork::tick(Cycle, Sink &&sink)
{
    // Back-to-front: freeing a downstream slot this cycle lets the
    // upstream stage use it this cycle (credit-based flow control).
    const int rr = rrTick_;
    const int last = stages_ - 1;
    for (int s = last; s >= 0; --s) {
        // A vacant stage (nothing resident) cannot move anything; its
        // routers' state is fully captured by the shared priority bit,
        // so skipping them is behaviour-preserving.
        if (stageCount_[static_cast<std::size_t>(s)] == 0) continue;
        const int dest_bit = last - s;
        for (int r = 0; r < ports_ / 2; ++r) {
            const std::size_t pair = buffer(s, 2 * r);
            if (size_[pair] == 0 && size_[pair + 1] == 0) continue;
            int out_used[2] = {0, 0};
            // The fabric clock allows `speedup_` passes over the two
            // inputs per PE cycle. Within one tick a router's inputs
            // only shrink and its outputs only fill (stages advance
            // back-to-front and each output port belongs to exactly one
            // router), so a pass that moves nothing proves every later
            // pass would move nothing: stop early.
            for (int pass = 0; pass < speedup_; ++pass) {
                bool progressed = false;
                for (int i = 0; i < 2; ++i) {
                    const std::size_t in =
                        pair + static_cast<std::size_t>((rr + i) & 1);
                    if (size_[in] == 0) continue;
                    const Flit &head = front(in);
                    int bit = (head.destPe >> dest_bit) & 1;
                    if (out_used[bit] >= speedup_) {
                        ++blocked_;
                        continue;
                    }
                    int out_port = 2 * r + bit;
                    if (s == last) {
                        if (!sink(head, out_port)) {
                            ++blocked_;
                            continue;
                        }
                        ++delivered_;
                    } else {
                        if (!push(buffer(s + 1, shuffle(out_port)), head)) {
                            ++blocked_;
                            continue;
                        }
                        ++stageCount_[static_cast<std::size_t>(s + 1)];
                    }
                    pop(in);
                    --stageCount_[static_cast<std::size_t>(s)];
                    ++out_used[bit];
                    progressed = true;
                }
                if (!progressed) break;
            }
        }
    }
    rrTick_ ^= 1;  // alternate input priority
}

} // namespace awb
