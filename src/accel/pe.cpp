#include "accel/pe.hpp"

#include <algorithm>

namespace awb {

Pe::Pe(int id, int num_queues, std::size_t queue_depth, int mac_latency)
    : id_(id), macLatency_(mac_latency)
{
    if (num_queues < 1) num_queues = 1;
    queues_.reserve(static_cast<std::size_t>(num_queues));
    for (int q = 0; q < num_queues; ++q)
        queues_.emplace_back(queue_depth);
    capacity_ = static_cast<std::size_t>(num_queues) * queue_depth;
    inflight_.reserve(static_cast<std::size_t>(mac_latency) + 1);
}

bool
Pe::drained(Cycle now) const
{
    if (pending_ != 0) return false;
    for (const auto &f : inflight_)
        if (f.done > now) return false;
    return true;
}

bool
Pe::enqueue(const Task &task)
{
    Fifo<Task> *best = nullptr;
    for (auto &q : queues_) {
        if (q.full()) continue;
        if (best == nullptr || q.size() < best->size()) best = &q;
    }
    if (best == nullptr) {
        ++enqueueRejects_;
        return false;
    }
    best->push(task);
    ++pending_;
    roundPeak_ = std::max(roundPeak_, best->size());
    return true;
}

bool
Pe::rowInFlight(Index row) const
{
    for (const auto &f : inflight_)
        if (f.row == row) return true;
    return false;
}

void
Pe::tick(Cycle now, std::vector<Value> &acc)
{
    // Retire MAC ops whose pipeline delay has elapsed.
    inflight_.erase(std::remove_if(inflight_.begin(), inflight_.end(),
                                   [now](const InFlight &f) {
                                       return f.done <= now;
                                   }),
                    inflight_.end());

    // Arbiter: round-robin over queues, issue the first whose head does
    // not RaW-conflict with an in-flight accumulation.
    const std::size_t nq = queues_.size();
    std::size_t qi = nextQueue_;
    for (std::size_t i = 0; i < nq; ++i) {
        Fifo<Task> &q = queues_[qi];
        if (++qi == nq) qi = 0;
        if (q.empty() || rowInFlight(q.front().row)) continue;

        Task t = q.pop();
        --pending_;
        nextQueue_ = qi;
        // Functional accumulate (the value is architecturally visible
        // only after the pipeline delay, which the scoreboard enforces).
        acc[static_cast<std::size_t>(t.row)] += t.a * t.b;
        inflight_.push_back({t.row, now + macLatency_});
        lastBusy_ = now;
        ++tasksRound_;
        return;
    }

    if (pending_ != 0) ++rawStalls_;
}

std::size_t
Pe::peakQueueDepth() const
{
    std::size_t m = 0;
    for (const auto &q : queues_) m = std::max(m, q.peakOccupancy());
    return m;
}

void
Pe::resetRound()
{
    tasksRound_ = 0;
    roundPeak_ = 0;
}

} // namespace awb
