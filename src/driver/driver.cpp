#include "driver/driver.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "driver/bench_harness.hpp"
#include "driver/scenario.hpp"
#include "driver/serve_cli.hpp"
#include "driver/sweep.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

/** Resolve a --designs value to a canonical registered policy name;
 *  the registry fatal()s with a near-miss suggestion on a miss. */
std::string
parseDesignCli(const std::string &s)
{
    return PolicyRegistry::instance().get(s).name;
}

void
printUsage()
{
    std::printf(
        "awbsim — AWB-GCN unified experiment driver\n\n"
        "  awbsim --list-scenarios\n"
        "      List every registered paper scenario.\n\n"
        "  awbsim --list-designs\n"
        "      List every registered balance policy (paper designs plus\n"
        "      extensions) usable with --designs.\n\n"
        "  awbsim --list-platforms\n"
        "      List every registered off-chip memory platform usable\n"
        "      with --platforms (DESIGN.md §8).\n\n"
        "  awbsim --list-datasets\n"
        "      List every registered dataset usable with --datasets.\n\n"
        "  Global flags (any command):\n"
        "      --no-cache          disable the process-wide workload and\n"
        "                          round-entry-state caches (DESIGN.md\n"
        "                          §13); results are bit-identical either\n"
        "                          way, only wall clock changes\n"
        "      --intra-threads N   worker threads for intra-point dense\n"
        "                          SPMM loops (0 = hardware concurrency;\n"
        "                          deterministic at any value)\n\n"
        "  awbsim --list-disciplines\n"
        "      List every registered serving batch discipline usable\n"
        "      with --discipline (DESIGN.md §10).\n\n"
        "  awbsim run <scenario ...> [--seed N] [--scale S] [--repeat N]\n"
        "             [--json FILE] [args ...]\n"
        "      Run scenarios by name ('all' = every one). Positional\n"
        "      args after a scenario name are passed to the scenarios.\n\n"
        "  awbsim --sweep [options]\n"
        "      Expand and run a configuration grid on a worker pool.\n"
        "      --datasets a,b,..   default cora,citeseer,pubmed,nell,reddit\n"
        "      --designs p1,p2,..  registered policy names or aliases\n"
        "                          (default base,a,b,c,d; see\n"
        "                          --list-designs)\n"
        "      --pes n1,n2,..      PE-array sizes (default 512)\n"
        "      --chips n1,n2,..    accelerator-chip counts the graph is\n"
        "                          row-sharded across (default 1 = one\n"
        "                          chip, the unsharded engine; DESIGN.md\n"
        "                          §9; model/cycle/tdq1/tdq2 modes)\n"
        "      --modes m1,m2,..    of model|cycle|tdq1|tdq2|graphsage|gin|\n"
        "                          khop|bfs|pagerank|churn (default model;\n"
        "                          graphsage/gin/khop run workload graphs\n"
        "                          on the Session API; bfs/pagerank run\n"
        "                          frontier SpGEMM kernels, DESIGN.md §11;\n"
        "                          churn streams edge churn through live\n"
        "                          inference epochs, DESIGN.md §12)\n"
        "      --engine E          cycle-engine implementation for the\n"
        "                          cycle-accurate modes: event (default,\n"
        "                          per-non-zero stepping) or batched\n"
        "                          (round-batched, bit-identical stats,\n"
        "                          Reddit-scale capable; DESIGN.md §6)\n"
        "      --platforms p1,..   off-chip memory platform axis (default\n"
        "                          unconstrained = no bandwidth bound;\n"
        "                          see --list-platforms; DESIGN.md §8)\n"
        "      --scale S           dataset node-count scale (default 1.0)\n"
        "      --seed N            global seed (default 1)\n"
        "      --threads N         worker threads (default: hardware)\n"
        "      --repeats N         per-point repeats, checks determinism\n"
        "      --json FILE         write JSON document (default\n"
        "                          awbsim_sweep.json; '-' = stdout)\n"
        "      --no-table          suppress the ASCII result table\n"
        "      --progress          per-point progress lines on stderr\n\n"
        "  awbsim --serve [options]\n"
        "      Serve a per-user inference request stream on N simulated\n"
        "      accelerators and report SLO-percentile latency statistics\n"
        "      (DESIGN.md §10).\n"
        "      --dataset D         default cora\n"
        "      --fidelity F        model (round-level, default) or cycle\n"
        "      --arrivals A        open (Poisson, default) or closed\n"
        "      --rate R            open-loop offered rate, requests/s\n"
        "      --clients N         closed-loop client population\n"
        "      --think-cycles N    closed-loop gap before reissue\n"
        "      --duration-ms D     admission horizon in simulated ms\n"
        "      --requests N        stop issuing after N requests\n"
        "      --devices N         simulated accelerator count\n"
        "      --discipline D      of fifo|sjf-nnz|dyn-batch (see\n"
        "                          --list-disciplines)\n"
        "      --max-batch N / --max-wait CYCLES   dyn-batch knobs\n"
        "      --queue-cap N       admission queue bound (0 = unbounded)\n"
        "      --timeout-cycles N  queue-age eviction deadline\n"
        "      --slo-ms S          latency SLO for violation accounting\n"
        "      --ego-frac F / --hops N / --max-ego-nodes N   request mix\n"
        "      --design P / --pes N / --seed N / --scale S\n"
        "      --json FILE         default awbsim_serve.json; '-' stdout\n\n"
        "  awbsim --serve-sweep [options]\n"
        "      Grid of serving runs: arrival rates x disciplines x\n"
        "      device counts on a worker pool (same JSON at any thread\n"
        "      count).\n"
        "      --rates r1,r2,..    default 500,1000,2000,4000\n"
        "      --disciplines d1,.. default fifo,dyn-batch\n"
        "      --devices n1,n2,..  default 1,4\n"
        "      --threads N         worker threads (default: hardware)\n"
        "      plus every --serve knob for the shared base options;\n"
        "      --json FILE (default awbsim_serve_sweep.json)\n");
    for (const BenchSpec &spec : benchSpecs())
        std::printf("\n%s", spec.usage().c_str());
}

int
listScenarios()
{
    auto all = ScenarioRegistry::instance().all();
    std::printf("%zu scenarios:\n", all.size());
    for (const Scenario *s : all)
        std::printf("  %-24s %-16s %s\n", s->name.c_str(),
                    ("[" + s->figure + "]").c_str(), s->summary.c_str());
    return 0;
}

int
listDesigns()
{
    auto all = PolicyRegistry::instance().all();
    std::printf("%zu registered balance policies:\n", all.size());
    for (const BalancePolicy *p : all) {
        std::string aliases;
        for (const auto &a : p->aliases)
            aliases += (aliases.empty() ? "" : ",") + a;
        std::printf("  %-14s %-10s %s%s%s\n", p->name.c_str(),
                    ("[" + p->label + "]").c_str(), p->description.c_str(),
                    aliases.empty() ? "" : "  alias: ", aliases.c_str());
    }
    return 0;
}

int
listDatasets()
{
    const auto &all = paperDatasets();
    std::printf("%zu registered datasets:\n", all.size());
    for (const DatasetSpec &d : all)
        std::printf("  %-10s %8lld nodes  f1=%lld f2=%lld f3=%lld  "
                    "densityA=%g\n",
                    d.name.c_str(), static_cast<long long>(d.nodes),
                    static_cast<long long>(d.f1),
                    static_cast<long long>(d.f2),
                    static_cast<long long>(d.f3), d.densityA);
    return 0;
}

int
listPlatforms()
{
    const auto &all = knownPlatforms();
    std::printf("%zu registered platforms:\n", all.size());
    for (const PlatformSpec &p : all) {
        if (p.bandwidthGBs > 0.0)
            std::printf("  %-14s %7.1f GB/s  %s\n", p.name.c_str(),
                        p.bandwidthGBs, p.description.c_str());
        else
            std::printf("  %-14s %12s  %s\n", p.name.c_str(), "--",
                        p.description.c_str());
    }
    return 0;
}

int
runSweepCli(int argc, char **argv, int first)
{
    SweepOptions opts;
    bool table = true;
    std::string json_path = "awbsim_sweep.json";
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) fatal(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (a == "--datasets") {
            opts.datasets = splitCsv(need("--datasets"));
        } else if (a == "--designs") {
            opts.designs.clear();
            for (const auto &d : splitCsv(need("--designs")))
                opts.designs.push_back(parseDesignCli(d));
        } else if (a == "--pes") {
            opts.peCounts.clear();
            for (const auto &p : splitCsv(need("--pes")))
                opts.peCounts.push_back(parseInt("--pes", p));
        } else if (a == "--chips") {
            opts.chipCounts.clear();
            for (const auto &c : splitCsv(need("--chips")))
                opts.chipCounts.push_back(parseInt("--chips", c));
        } else if (a == "--modes") {
            opts.modes.clear();
            for (const auto &m : splitCsv(need("--modes")))
                opts.modes.push_back(parseSweepMode(m));
        } else if (a == "--engine") {
            opts.engine = parseEngineKind(need("--engine"));
        } else if (a == "--platforms" || a == "--platform") {
            opts.platforms.clear();
            for (const auto &p : splitCsv(need("--platforms")))
                opts.platforms.push_back(findPlatform(p).name);
        } else if (a == "--scale") {
            opts.scale = parseDouble("--scale", need("--scale"));
        } else if (a == "--seed") {
            opts.seed = parseUint("--seed", need("--seed"));
        } else if (a == "--threads") {
            opts.threads = parseInt("--threads", need("--threads"));
        } else if (a == "--repeats") {
            opts.repeats = parseInt("--repeats", need("--repeats"));
        } else if (a == "--json") {
            json_path = need("--json");
        } else if (a == "--no-table") {
            table = false;
        } else if (a == "--progress") {
            opts.progress = true;
        } else {
            fatal("unknown sweep flag: " + a);
        }
    }
    if (opts.datasets.empty() || opts.designs.empty() ||
        opts.peCounts.empty() || opts.modes.empty() ||
        opts.platforms.empty() || opts.chipCounts.empty())
        fatal("sweep grid has an empty axis");

    std::vector<SweepPoint> points = expandGrid(opts);
    std::fprintf(stderr, "sweep: %zu grid points, %u worker threads\n",
                 points.size(), resolveThreads(opts, points.size()));

    auto outcomes = runSweep(opts, points);
    if (table) std::printf("%s", sweepTable(outcomes).c_str());

    writeJsonDoc(sweepToJson(opts, outcomes), json_path, "sweep");

    int failed = 0;
    for (const auto &o : outcomes)
        if (!o.ok) ++failed;
    if (failed)
        std::fprintf(stderr, "%d of %zu points failed\n", failed,
                     outcomes.size());
    return failed ? 1 : 0;
}

} // namespace

int
driverMain(int argc, char **argv)
{
    // Global execution-core flags (DESIGN.md §13) may appear anywhere on
    // the command line; strip them before command dispatch. The caches
    // default ON in the driver — library users and unit tests see plain
    // uncached behavior unless they opt in via exec::setCachesEnabled.
    bool no_cache = false;
    int intra_threads = 0;
    std::vector<char *> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--no-cache") {
            no_cache = true;
        } else if (a == "--intra-threads") {
            if (i + 1 >= argc) fatal("--intra-threads needs a value");
            intra_threads = parseInt("--intra-threads", argv[++i]);
        } else {
            args.push_back(argv[i]);
        }
    }
    exec::setCachesEnabled(!no_cache);
    setIntraThreads(intra_threads);
    argc = static_cast<int>(args.size());
    argv = args.data();

    if (argc < 2) {
        printUsage();
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        printUsage();
        return 0;
    }
    if (cmd == "--list-scenarios" || cmd == "list") return listScenarios();
    if (cmd == "--list-designs" || cmd == "--list-policies")
        return listDesigns();
    if (cmd == "--list-platforms") return listPlatforms();
    if (cmd == "--list-datasets") return listDatasets();
    if (cmd == "run") {
        ScenarioCli cli = parseScenarioCli(argc, argv, 2);
        if (cli.help) {
            printUsage();
            return 0;
        }
        return runScenarioCli(cli);
    }
    if (cmd == "--sweep" || cmd == "sweep") return runSweepCli(argc, argv, 2);
    for (const BenchSpec &spec : benchSpecs())
        if (cmd == "--bench-" + spec.name || cmd == "bench-" + spec.name)
            return runBench(spec, {argv + 2, argv + argc});
    if (cmd == "--list-disciplines") return listDisciplines();
    if (cmd == "--serve" || cmd == "serve")
        return runServeCli(argc, argv, 2);
    if (cmd == "--serve-sweep" || cmd == "serve-sweep")
        return runServeSweepCli(argc, argv, 2);
    printUsage();
    fatal("unknown command: " + cmd);
}

} // namespace awb::driver
