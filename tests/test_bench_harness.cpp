/**
 * @file
 * Tests for the bench harness (driver/bench_harness.hpp): every
 * registered `--bench-<name>` spec runs clean on a tiny grid, a failing
 * gate fails the run, the parser keeps the per-bench error messages,
 * and each usage section prints the defaults the parser actually uses.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/bench_harness.hpp"

using namespace awb;
using namespace awb::driver;

namespace {

const BenchSpec &
specNamed(const std::string &name)
{
    for (const BenchSpec &s : benchSpecs())
        if (s.name == name) return s;
    ADD_FAILURE() << "no bench spec named " << name;
    return benchSpecs().front();
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::string
tempJson(const std::string &name)
{
    return ::testing::TempDir() + "bench_harness_" + name + ".json";
}

/** A one-flag spec whose "broken" gate fails unless --n exceeds 1. */
BenchSpec
probeSpec()
{
    return {"probe",
            "a bench whose gate fails by default",
            {benchFlag("--n", BenchArg::Int, "1", "a number")},
            [](const BenchArgs &a, BenchReport &r) {
                r.table = "probe table\n";
                r.gates = {{"ok", true, "never printed"},
                           {"broken", a.integer("--n") > 1,
                            "the probe gate tripped"}};
                setGateFields(r.doc, r.gates);
            }};
}

} // namespace

TEST(BenchHarness, EverySpecRunsCleanOnATinyGrid)
{
    struct Tiny
    {
        std::string name;
        std::vector<std::string> args;
        std::vector<std::string> gates;  ///< summary fields, all true
    };
    const std::vector<Tiny> runs = {
        {"memory",
         {"--datasets", "cora", "--pes", "64", "--scale", "0.2"},
         {"noop_identical"}},
        {"scaleout",
         {"--dataset", "cora", "--pes", "64", "--chips", "1,2,4",
          "--scale", "0.3"},
         {"halo_monotone"}},
        {"engine",
         {"--datasets", "cora", "--pes", "64", "--scale", "0.2"},
         {"all_identical"}},
        {"spgemm",
         {"--pes", "32", "--scale", "0.2"},
         {"deterministic", "engines_identical", "functional_ok",
          "model_traffic_ok"}},
        {"dynamic",
         {"--datasets", "cora", "--pes", "64", "--epochs", "3", "--events",
          "64", "--scale", "0.2"},
         {"deterministic", "engines_identical", "rebuild_identical",
          "trajectory_ok"}},
        {"serving",
         {"--datasets", "cora,citeseer", "--duration-ms", "0.5", "--rates",
          "25000,50000"},
         {"gates_ok"}},
    };
    ASSERT_EQ(runs.size(), benchSpecs().size());
    for (const Tiny &run : runs) {
        SCOPED_TRACE(run.name);
        const std::string path = tempJson(run.name);
        std::vector<std::string> args = run.args;
        args.insert(args.end(), {"--json", path});
        ASSERT_EQ(runBench(specNamed(run.name), args), 0);

        const std::string doc = slurp(path);
        EXPECT_EQ(doc.rfind("{\n  \"schema\": \"awbsim-bench-" + run.name +
                                "-v1\",",
                            0),
                  0u);
        const std::size_t summary = doc.rfind("\"summary\": {");
        ASSERT_NE(summary, std::string::npos);
        for (const std::string &gate : run.gates)
            EXPECT_NE(doc.find("\"" + gate + "\": true", summary),
                      std::string::npos)
                << gate;
        std::remove(path.c_str());
    }
}

TEST(BenchHarness, AFailingGateFailsTheRun)
{
    const BenchSpec probe = probeSpec();
    const std::string path = tempJson("probe");

    ::testing::internal::CaptureStderr();
    EXPECT_EQ(runBench(probe, {"--json", path}), 1);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("bench-probe: broken GATE FAILED — the probe gate "
                       "tripped"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("never printed"), std::string::npos);
    // The document is still written, with the failed gate recorded.
    EXPECT_NE(slurp(path).find("\"broken\": false"), std::string::npos);

    EXPECT_EQ(runBench(probe, {"--n", "2", "--json", path}), 0);
    EXPECT_NE(slurp(path).find("\"broken\": true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchHarness, UsagePrintsTheDefaultsTheParserUses)
{
    for (const BenchSpec &spec : benchSpecs()) {
        SCOPED_TRACE(spec.name);
        const std::string usage = spec.usage();
        const BenchArgs parsed = spec.parse({});
        for (const BenchFlag &f : spec.flags) {
            const std::string &flag = f.names.front();
            const std::size_t at = usage.find("      " + flag + " ");
            ASSERT_NE(at, std::string::npos) << flag;
            const std::size_t open = usage.find("(default ", at);
            ASSERT_NE(open, std::string::npos) << flag;
            const std::size_t from = open + 9;
            EXPECT_EQ(usage.substr(from, usage.find(')', from) - from),
                      parsed.text(flag))
                << flag;
            for (const std::string &alias : f.names)
                EXPECT_NE(usage.find(alias), std::string::npos) << alias;
        }
        EXPECT_EQ(parsed.jsonPath, "BENCH_" + spec.name + ".json");
        EXPECT_NE(usage.find("(default " + parsed.jsonPath + ")"),
                  std::string::npos);
    }
}

TEST(BenchHarness, AliasesAndCanonicalNames)
{
    const BenchArgs a = specNamed("memory").parse(
        {"--platform", "d5005-ddr4", "--policies", "base,d", "--datasets",
         "Cora"});
    EXPECT_EQ(a.text("--platforms"), "d5005-ddr4");
    EXPECT_EQ(a.text("--policies"), "baseline,remote-d");
    EXPECT_EQ(a.text("--datasets"), "cora");
    const BenchArgs d = specNamed("dynamic").parse({"--designs", "c"});
    EXPECT_EQ(d.text("--policies"), "remote-c");
    EXPECT_EQ(d.integer("--epochs"), 10);
    EXPECT_DOUBLE_EQ(d.real("--insert-frac"), 0.9);
}

TEST(BenchHarnessDeath, ParserErrorsNameTheFlag)
{
    const BenchSpec &memory = specNamed("memory");
    EXPECT_EXIT(memory.parse({"--bogus", "1"}),
                ::testing::ExitedWithCode(1),
                "unknown bench-memory flag: --bogus");
    EXPECT_EXIT(memory.parse({"--platform"}), ::testing::ExitedWithCode(1),
                "--platforms needs a value");
    EXPECT_EXIT(memory.parse({"--pes", "many"}),
                ::testing::ExitedWithCode(1),
                "--pes needs an integer, got 'many'");
    EXPECT_EXIT(memory.parse({"--pes", "0"}), ::testing::ExitedWithCode(1),
                "--pes must be >= 1");
    EXPECT_EXIT(specNamed("scaleout").parse({"--chips", "1,0"}),
                ::testing::ExitedWithCode(1),
                "--chips entries must be >= 1");
    EXPECT_EXIT(specNamed("spgemm").parse({"--policies", ","}),
                ::testing::ExitedWithCode(1),
                "--policies must not be empty");
    EXPECT_EXIT(specNamed("serving").parse({"--datasets", "cora"}),
                ::testing::ExitedWithCode(1),
                "needs at least 2 datasets");
}
