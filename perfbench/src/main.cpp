/**
 * @file
 * The simulator benchmark (see NOTES.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--span-file FILE]
 *   perfbench --self-test
 *
 * --trace 0 times the workload through the public sweep API and prints
 * the end-to-end metrics; --trace 1 runs the traced pass and prints the
 * per-layer metrics. Either way the last line of standard output is one
 * JSON object {"correct", "attempted", "failed", "metrics"}. The exit
 * code is 0 whenever that line was printed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "exec/workload_cache.hpp"
#include "gate.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/** Sweeps per untraced run at least: three, so that run_s and cpu_s
 *  are medians of several sweeps and a digest that does not repeat
 *  within one seed is caught. More follow while the next one still
 *  fits in --seconds. */
constexpr int kMinSweeps = 3;

/** Cold set-ups per sweep; setup_s is their median. */
constexpr int kSetupsPerSweep = 3;

/** Synthesized instances pooled into paper_util_err. Over one
 *  instance's 25 points the median error moves by ~28% from seed to
 *  seed (quartile spread of ten seeds) and the mean by ~8%; the mean
 *  over four instances moves by ~4%. */
constexpr std::uint64_t kUtilSeeds = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void
printProblems(const std::vector<std::string> &problems)
{
    for (const std::string &p : problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
}

/**
 * A fidelity figure over `seeds` synthesized instances of its reference
 * grid: the run's seed, then seeds derived from it. The workload's own
 * outcomes stand in for the run's seed when they hold the grid's
 * points; every other instance is one untimed reference sweep.
 * `run_seed` receives the figure of the run's seed alone.
 */
Fidelity
pooledFidelity(Fidelity (*measure)(const std::vector<SweepOutcome> &),
               const std::vector<SweepOutcome> &own,
               Workload (*reference)(std::uint64_t), std::uint64_t seed,
               std::uint64_t seeds, Fidelity *run_seed)
{
    std::vector<SweepOutcome> pool = own;
    *run_seed = measure(own);
    for (std::uint64_t k = 0; k < seeds; ++k) {
        if (k == 0 && run_seed->count > 0) continue;
        std::vector<SweepOutcome> more =
            runWorkload(reference(k == 0 ? seed : awb::splitmix64(seed + k)));
        if (k == 0) *run_seed = measure(more);
        pool.insert(pool.end(), more.begin(), more.end());
    }
    return measure(pool);
}

int
runUntraced(const Workload &w, std::uint64_t seed, double seconds,
            std::vector<std::string> problems)
{
    awb::exec::WorkloadCache &wl = awb::exec::WorkloadCache::instance();
    const std::vector<Input> inputs = requiredInputs(w);
    std::vector<double> setup_s, run_s, cpu_s;
    std::vector<SweepOutcome> first;
    std::uint64_t digest = 0;
    const Clock::time_point start = Clock::now();
    double longest_cycle = 0.0;
    for (int sweep = 0;
         sweep < kMinSweeps ||
         secondsSince(start) + longest_cycle <= seconds;
         ++sweep) {
        const Clock::time_point cycle0 = Clock::now();
        Clock::time_point t0;
        for (int k = 0; k < kSetupsPerSweep; ++k) {
            clearCaches();
            t0 = Clock::now();
            for (const Input &in : inputs) buildInput(in);
            setup_s.push_back(secondsSince(t0));
        }

        const std::uint64_t misses = wl.misses();
        const double cpu0 = processCpuSeconds();
        t0 = Clock::now();
        std::vector<SweepOutcome> outcomes = runWorkload(w);
        const std::size_t bytes = serializeWorkload(w, outcomes);
        run_s.push_back(secondsSince(t0));
        cpu_s.push_back(processCpuSeconds() - cpu0);

        if (wl.misses() != misses)
            problems.push_back(std::to_string(wl.misses() - misses) +
                               " WorkloadCache misses in timed sweep " +
                               std::to_string(sweep));
        if (outcomes.size() != w.points.size() || bytes == 0)
            problems.push_back("sweep " + std::to_string(sweep) +
                               " returned a short result");
        longest_cycle = std::max(longest_cycle, secondsSince(cycle0));
        const std::uint64_t d = modelDigest(outcomes);
        if (sweep == 0) {
            first = std::move(outcomes);
            digest = d;
        } else if (d != digest) {
            problems.push_back("model digest of sweep " +
                               std::to_string(sweep) + " (" + hex(d) +
                               ") differs from sweep 0 (" + hex(digest) +
                               ")");
        }
    }
    // Read before any reference sweep below can raise it.
    const double rss = peakRssMb();
    const Clock::time_point ref0 = Clock::now();
    Fidelity util_seed, gap_seed;
    const Fidelity util = pooledFidelity(paperUtilErr, first, fig14Reference,
                                         seed, kUtilSeeds, &util_seed);
    const Fidelity gap = pooledFidelity(modelCycleGap, first,
                                        cyclePairReference, seed, 1,
                                        &gap_seed);
    const double reference_s = secondsSince(ref0);
    if (util.count != 25 * kUtilSeeds)
        problems.push_back("paper_util_err covers " +
                           std::to_string(util.count) + " of " +
                           std::to_string(25 * kUtilSeeds) + " points");
    if (gap.count != 15)
        problems.push_back("model_cycle_gap covers " +
                           std::to_string(gap.count) + " of 15 pairs");

    const GateCounts g = gate(first);
    const double fail_ratio = static_cast<double>(g.failed) /
                              static_cast<double>(g.attempted);
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", median(run_s), "s"},
        {"cpu_s", median(cpu_s), "s"},
        {"peak_rss_mb", rss, "MB"},
        {"pass_ratio", 1.0 - fail_ratio, "ratio"},
        {"paper_util_err", util.mean, "ratio"},
        {"model_cycle_gap", gap.mean, "ratio"},
    };

    std::printf("workload %s: %zu points x %zu sweeps, seed %llu, "
                "%d workers x %d intra-thread\n",
                w.name.c_str(), w.points.size(), run_s.size(),
                static_cast<unsigned long long>(seed), kWorkers,
                kIntraThreads);
    for (const Metric &m : metrics)
        std::printf("  %-16s %12.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  run_s per sweep:");
    for (double v : run_s) std::printf(" %.3f", v);
    std::printf("\n  cpu_s per sweep:");
    for (double v : cpu_s) std::printf(" %.3f", v);
    std::printf("\n  reference sweeps for the fidelity figures: %.3f s\n",
                reference_s);
    std::printf("  %-16s %12.6f ratio (%s)\n", "fail_ratio", fail_ratio,
                describe(g).c_str());
    std::printf("  paper_util_err: mean over %zu Fig. 14 points of %llu "
                "seeds (median of this seed's 25: %.6f)\n",
                util.count, static_cast<unsigned long long>(kUtilSeeds),
                util_seed.median);
    std::printf("  model_cycle_gap: mean over %zu pairs (median %.6f); both "
                "figures simulated, exact for a seed\n",
                gap.count, gap.median);
    std::printf("  model digest %s (%zu sweeps agree: %s)\n",
                hex(digest).c_str(), run_s.size(),
                problems.empty() ? "yes" : "see checks");
    printProblems(problems);
    printResult(problems.empty(), g.attempted, g.failed, metrics);
    return 0;
}

int
runTracedMode(const Workload &w, const std::string &span_file,
              std::vector<std::string> problems)
{
    TracedRun t = runTraced(w, span_file);
    problems.insert(problems.end(), t.problems.begin(), t.problems.end());
    std::printf("workload %s traced: %zu points, %zu spans -> %s\n",
                w.name.c_str(), w.points.size(), t.spans,
                span_file.c_str());
    for (const Metric &m : t.metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  gate %s\n", describe(t.gate).c_str());
    std::printf("  model digest %s (equals the untraced sweep's: %s)\n",
                hex(t.digest).c_str(),
                problems.empty() ? "yes" : "see checks");
    printProblems(problems);
    printResult(problems.empty(), t.gate.attempted, t.gate.failed,
                t.metrics);
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--span-file FILE]\n"
                 "       perfbench --self-test\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, span_file = "perfbench_spans.json";
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--self-test") {
            self_test = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v.c_str());
        else if (a == "--trace")
            trace = std::atoi(v.c_str());
        else if (a == "--span-file")
            span_file = v;
        else
            usage(("unknown flag " + a).c_str());
    }

    // The gate self-test runs on every invocation: a benchmark whose
    // gate stopped catching perturbations is not correct.
    std::vector<std::string> problems = selfTest();
    if (self_test) {
        printProblems(problems);
        std::printf("self-test: %s\n", problems.empty() ? "ok" : "FAILED");
        return problems.empty() ? 0 : 1;
    }
    if (workload.empty()) usage("--workload is required");
    if (trace != 0 && trace != 1) usage("--trace takes 0 or 1");

    // As awbsim runs a sweep: both caches on, intra-point threads bounded
    // so workers x intra-threads fits the core budget.
    awb::exec::setCachesEnabled(true);
    awb::setIntraThreads(kIntraThreads);
    const Workload w = makeWorkload(workload, seed);
    return trace ? runTracedMode(w, span_file, std::move(problems))
                 : runUntraced(w, seed, seconds, std::move(problems));
}
