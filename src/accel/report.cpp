#include "accel/report.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/log.hpp"

namespace awb {

std::string
utilizationHeatmap(const std::vector<Count> &pe_tasks, std::size_t width)
{
    static const char kRamp[] = {' ', '.', ':', '-', '=',
                                 '+', '*', '#', '%', '@'};
    if (pe_tasks.empty()) return "";
    width = std::max<std::size_t>(1, std::min(width, pe_tasks.size()));

    // Bucket PEs down to `width` cells.
    std::vector<double> cell(width, 0.0);
    for (std::size_t p = 0; p < pe_tasks.size(); ++p) {
        std::size_t b = p * width / pe_tasks.size();
        cell[b] += static_cast<double>(pe_tasks[p]);
    }
    for (std::size_t b = 0; b < width; ++b) {
        std::size_t lo = b * pe_tasks.size() / width;
        std::size_t hi = (b + 1) * pe_tasks.size() / width;
        cell[b] /= static_cast<double>(std::max<std::size_t>(1, hi - lo));
    }

    double mean = std::accumulate(cell.begin(), cell.end(), 0.0) /
                  static_cast<double>(width);
    std::string s;
    s.reserve(width + 2);
    s.push_back('[');
    for (double v : cell) {
        // 1.0x mean maps mid-ramp; >= 2x mean saturates (paper Fig. 10's
        // red end).
        double t = mean > 0.0 ? v / (2.0 * mean) : 0.0;
        auto idx = static_cast<std::size_t>(t * 9.0);
        s.push_back(kRamp[std::min<std::size_t>(idx, 9)]);
    }
    s.push_back(']');
    return s;
}

namespace {
constexpr char kMagic[] = "awbgcn-rowmap-v1";
} // namespace

void
savePartition(std::ostream &out, const RowPartition &partition)
{
    out << kMagic << " " << partition.rows() << " " << partition.numPes()
        << "\n";
    for (Index r = 0; r < partition.rows(); ++r) {
        out << partition.owner(r);
        out << ((r + 1) % 32 == 0 ? '\n' : ' ');
    }
    out << "\n";
}

void
savePartitionFile(const std::string &path, const RowPartition &partition)
{
    std::ofstream out(path);
    if (!out) fatal("cannot open for write: " + path);
    savePartition(out, partition);
}

RowPartition
loadPartition(std::istream &in)
{
    std::string magic;
    Index rows = 0;
    int pes = 0;
    in >> magic >> rows >> pes;
    if (magic != kMagic) fatal("not a saved row map (bad header)");
    if (rows <= 0 || pes <= 0) fatal("saved row map has bad dimensions");

    std::vector<int> owner(static_cast<std::size_t>(rows));
    for (int &pe : owner) {
        in >> pe;
        if (!in || pe < 0 || pe >= pes)
            fatal("saved row map truncated or corrupt");
    }
    return RowPartition(std::move(owner), pes);
}

RowPartition
loadPartitionFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) fatal("cannot open row map: " + path);
    return loadPartition(in);
}

} // namespace awb
