#include "gate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>
#include <type_traits>

namespace perfbench {

using awb::driver::SweepMode;
using awb::driver::SweepOutcome;
using awb::exec::RunResult;

namespace {

/** Paper Fig. 14 overall PE utilization per dataset for designs
 *  {baseline, local-a, local-b, remote-c, remote-d}, as tabulated in
 *  bench/scenario_fig14_overall.cpp: the repository's only reference
 *  measured on hardware. */
const std::map<std::string, std::array<double, 5>> kPaperUtil = {
    {"cora", {0.53, 0.83, 0.83, 0.90, 0.90}},
    {"citeseer", {0.71, 0.83, 0.83, 0.89, 0.89}},
    {"pubmed", {0.69, 0.93, 0.93, 0.96, 0.96}},
    {"nell", {0.13, 0.44, 0.53, 0.63, 0.77}},
    {"reddit", {0.92, 0.99, 0.99, 0.99, 0.99}},
};
const std::array<const char *, 5> kPaperPolicies = {
    "baseline", "local-a", "local-b", "remote-c", "remote-d"};

class Fnv
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_arithmetic_v<T>, "hash numbers only");
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) mix(b);
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s) mix(c);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    mix(unsigned char b)
    {
        h_ ^= b;
        h_ *= 1099511628211ULL;
    }

    std::uint64_t h_ = 1469598103934665603ULL;
};

Fidelity
summarize(std::vector<double> v)
{
    Fidelity f;
    f.count = v.size();
    if (v.empty()) return f;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    f.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    for (double x : v) f.mean += x;
    f.mean /= static_cast<double>(n);
    return f;
}

} // namespace

GateCounts
gate(const std::vector<SweepOutcome> &outcomes)
{
    GateCounts g;
    for (const SweepOutcome &o : outcomes) {
        ++g.attempted;
        bool failed = false;
        if (!o.ok) {
            ++g.errorRows;
            failed = true;
        } else {
            if (!(o.utilization > 0.0 && o.utilization <= 1.0)) {
                ++g.utilization;
                failed = true;
            }
            if (o.idealCycles > 0 && o.cycles < o.idealCycles) {
                ++g.cyclesBelowIdeal;
                failed = true;
            }
        }
        if (failed) ++g.failed;
    }
    return g;
}

std::string
describe(const GateCounts &g)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu/%zu failed: error %zu, utilization %zu, "
                  "cycles<ideal %zu",
                  g.failed, g.attempted, g.errorRows, g.utilization,
                  g.cyclesBelowIdeal);
    return buf;
}

std::uint64_t
modelDigest(const std::vector<SweepOutcome> &outcomes)
{
    Fnv h;
    for (const SweepOutcome &o : outcomes) {
        const awb::driver::SweepPoint &p = o.point;
        h.add(p.index);
        h.add(p.dataset);
        h.add(p.policy);
        h.add(p.platform);
        h.add(p.pes);
        h.add(p.chips);
        h.add(static_cast<int>(p.mode));
        h.add(p.seed);
        h.add(o.ok);
        h.add(o.error);
        h.add(o.cycles);
        h.add(o.idealCycles);
        h.add(o.syncCycles);
        h.add(o.tasks);
        h.add(o.utilization);
        h.add(o.peakTqDepth);
        h.add(o.rowsSwitched);
        h.add(o.convergedRound);
        h.add(o.rounds);
        h.add(o.bytesTotal);
        h.add(o.memoryCycles);
        h.add(o.bwBoundRounds);
        h.add(o.haloBytes);
        h.add(o.haloCycles);
        h.add(o.haloBoundRounds);
        h.add(o.chipImbalance);
        h.add(o.halfLifeEpochs);
        h.add(o.latencyMs);
        h.add(o.inferencesPerKj);
        h.add(o.areaTotalClb);
        h.add(o.areaTqClb);
        h.add(o.deterministic);
    }
    return h.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    auto fields = [](const RunResult &r) {
        return std::make_tuple(
            r.ok, r.error, r.cycles, r.idealCycles, r.syncCycles, r.tasks,
            r.utilization, r.peakTqDepth, r.rowsSwitched, r.convergedRound,
            r.rounds, r.roundsSimulated, r.bytesTotal, r.memoryCycles,
            r.bwBoundRounds, r.haloBytes, r.haloCycles, r.haloBoundRounds,
            r.chipImbalance, r.halfLifeEpochs, r.latencyMs,
            r.inferencesPerKj, r.areaTotalClb, r.areaTqClb);
    };
    return fields(a) == fields(b);
}

Fidelity
paperUtilErr(const std::vector<SweepOutcome> &outcomes)
{
    std::vector<double> err;
    for (const SweepOutcome &o : outcomes) {
        const auto &p = o.point;
        auto row = kPaperUtil.find(p.dataset);
        auto col = std::find(kPaperPolicies.begin(), kPaperPolicies.end(),
                             p.policy);
        if (!o.ok || p.mode != SweepMode::Model || p.pes != 512 ||
            p.platform != "unconstrained" || p.chips != 1 ||
            row == kPaperUtil.end() || col == kPaperPolicies.end())
            continue;
        const auto design =
            static_cast<std::size_t>(col - kPaperPolicies.begin());
        err.push_back(std::fabs(o.utilization - row->second[design]));
    }
    return summarize(std::move(err));
}

Fidelity
modelCycleGap(const std::vector<SweepOutcome> &outcomes)
{
    using Key = std::tuple<std::string, std::string, std::string, int, int,
                           std::uint64_t>;
    std::map<Key, const SweepOutcome *> model, cycle;
    for (const SweepOutcome &o : outcomes) {
        const auto &p = o.point;
        if (!o.ok) continue;
        Key k{p.dataset, p.policy, p.platform, p.pes, p.chips, p.seed};
        if (p.mode == SweepMode::Model) model[k] = &o;
        if (p.mode == SweepMode::Cycle) cycle[k] = &o;
    }
    std::vector<double> gap;
    for (const auto &[k, c] : cycle) {
        auto m = model.find(k);
        if (m == model.end() || c->cycles == 0) continue;
        gap.push_back(std::fabs(static_cast<double>(m->second->cycles) /
                                    static_cast<double>(c->cycles) -
                                1.0));
    }
    return summarize(std::move(gap));
}

std::vector<std::string>
selfTest()
{
    SweepOutcome good;
    good.ok = true;
    good.cycles = 1000;
    good.idealCycles = 800;
    good.tasks = 400;
    good.utilization = 0.4;
    good.point.dataset = "cora";

    std::vector<std::string> problems;
    auto expect = [&](bool caught, const char *what) {
        if (!caught) problems.push_back(std::string("not caught: ") + what);
    };

    expect(gate({good}).failed == 0, "a clean point (false alarm)");

    SweepOutcome over = good;
    over.utilization = 1.3;
    GateCounts g = gate({good, over});
    expect(g.failed == 1 && g.utilization == 1, "utilization 1.3");

    SweepOutcome zero = good;
    zero.utilization = 0.0;
    expect(gate({zero}).utilization == 1, "utilization 0");

    SweepOutcome fast = good;
    fast.cycles = fast.idealCycles - 1;
    g = gate({fast});
    expect(g.failed == 1 && g.cyclesBelowIdeal == 1, "cycles < ideal");

    SweepOutcome error;
    error.ok = false;
    error.error = "numPes must be positive";
    g = gate({good, error});
    expect(g.failed == 1 && g.errorRows == 1, "an error row");

    SweepOutcome both = over;
    both.cycles = both.idealCycles - 1;
    g = gate({both});
    expect(g.failed == 1 && g.utilization == 1 && g.cyclesBelowIdeal == 1,
           "two causes on one point (counted once in the total)");

    const std::uint64_t base = modelDigest({good, over});
    SweepOutcome nudged = over;
    nudged.utilization = std::nextafter(over.utilization, 2.0);
    expect(modelDigest({good, nudged}) != base,
           "a one-ulp utilization change in the digest");
    SweepOutcome recount = over;
    recount.haloBytes += 1;
    expect(modelDigest({good, recount}) != base,
           "a halo byte in the digest");
    expect(modelDigest({over, good}) != base, "reordered outcomes");
    SweepOutcome timed = over;
    timed.wallMs += 5.0;
    timed.roundsSimulated += 3;
    expect(modelDigest({good, timed}) == base,
           "host-side fields kept out of the digest (false alarm)");
    expect(!sameResult(over, recount), "a halo byte in sameResult");
    expect(!sameResult(over, timed), "roundsSimulated in sameResult");
    return problems;
}

} // namespace perfbench
