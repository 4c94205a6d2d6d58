/**
 * @file
 * Row-to-PE ownership map — the state the Shuffling Switches (SS) and the
 * Remote Balancing Control Registers (RBCR) maintain in hardware (paper
 * Fig. 12). The initial assignment is the static equal partition of the
 * baseline (Fig. 6); dynamic remote switching rewrites entries between
 * rounds.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace awb {

/**
 * Ownership of sparse-operand rows (== result rows) by PEs.
 *
 * Every map carries a version() stamp drawn from one process-wide
 * counter: a fresh one at each construction and at each moveRow() that
 * changes an owner. A copy keeps its source's stamp, so equal stamps
 * mean equal maps, and replacing a map by assignment (`part =
 * RowPartition(...)`) never repeats an old stamp. Consumers that derive
 * O(rows) state from the map (the round-level model's per-PE work, the
 * migration ledger) recompute it only when the stamp moves.
 */
class RowPartition
{
  public:
    RowPartition();

    /** The blocked static map of paper Fig. 6: consecutive rows per PE,
     *  floor(rows/P) or ceil(rows/P) each. */
    RowPartition(Index rows, int num_pes);

    /** Adopt an explicit row→PE assignment (balance policies that
     *  compute the whole map at once). Every entry must be in
     *  [0, num_pes). */
    RowPartition(std::vector<int> owner, int num_pes);

    Index rows() const { return static_cast<Index>(owner_.size()); }
    int numPes() const { return numPes_; }

    int owner(Index row) const
    {
        return owner_[static_cast<std::size_t>(row)];
    }

    /** The full row→PE assignment vector. The batched cycle engine keys
     *  its round memoization on this (DESIGN.md §6). */
    const std::vector<int> &owners() const { return owner_; }

    /** This map's stamp (never 0); equal stamps mean equal maps. */
    std::uint64_t version() const { return version_; }

    /** Rows currently owned by PE p (unsorted). */
    const std::vector<Index> &rowsOf(int pe) const
    {
        return rowsOf_[static_cast<std::size_t>(pe)];
    }

    /** Reassign one row to a new PE; takes a new stamp if it moved. */
    void moveRow(Index row, int to_pe);

    /** Swap ownership of two row sets between two PEs (remote switching). */
    void swapRows(const std::vector<Index> &from_hot,
                  const std::vector<Index> &from_cold, int hot_pe,
                  int cold_pe);

    /**
     * Per-PE workload given per-row task counts (one round's work):
     * W_p = sum of work[row] over rows owned by p.
     */
    std::vector<Count> workload(const std::vector<Count> &row_work) const;

    /** Structural check: rowsOf lists and owner vector agree. */
    bool consistent() const;

  private:
    int numPes_ = 0;
    std::uint64_t version_;
    std::vector<int> owner_;
    std::vector<std::vector<Index>> rowsOf_;
};

} // namespace awb
