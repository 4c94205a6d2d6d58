#include "driver/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/log.hpp"

namespace awb::driver {

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(Scenario s)
{
    if (s.name.empty() || !s.run) fatal("scenario needs a name and a body");
    if (find(s.name)) fatal("duplicate scenario name: " + s.name);
    scenarios_.push_back(std::move(s));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const auto &s : scenarios_)
        if (s.name == name) return &s;
    return nullptr;
}

std::vector<const Scenario *>
ScenarioRegistry::all() const
{
    std::vector<const Scenario *> out;
    out.reserve(scenarios_.size());
    for (const auto &s : scenarios_) out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Scenario *a, const Scenario *b) {
                  return a->name < b->name;
              });
    return out;
}

ScenarioRegistrar::ScenarioRegistrar(Scenario s)
{
    ScenarioRegistry::instance().add(std::move(s));
}

void
scenarioBanner(const Scenario &s)
{
    std::printf(
        "\n=============================================================="
        "\n%s — %s\n"
        "==============================================================\n",
        s.figure.c_str(), s.summary.c_str());
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        std::uint64_t out = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        fatal(flag + " needs an unsigned integer, got '" + v + "'");
    }
}

int
parseInt(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        int out = std::stoi(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        fatal(flag + " needs an integer, got '" + v + "'");
    }
}

double
parseDouble(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        double out = std::stod(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        fatal(flag + " needs a number, got '" + v + "'");
    }
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) comma = s.size();
        if (comma > start) out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

ScenarioCli
parseScenarioCli(int argc, char **argv, int first)
{
    ScenarioCli cli;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) fatal(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (a == "--seed") {
            cli.ctx.seed = parseUint("--seed", need("--seed"));
        } else if (a == "--scale") {
            cli.ctx.scale = parseDouble("--scale", need("--scale"));
        } else if (a == "--repeat") {
            cli.repeats = parseInt("--repeat", need("--repeat"));
        } else if (a == "--json") {
            cli.jsonPath = need("--json");
        } else if (a == "--help" || a == "-h") {
            cli.help = true;
        } else if (a == "all") {
            cli.runAll = true;
        } else if (ScenarioRegistry::instance().find(a)) {
            cli.names.push_back(a);
        } else if (!a.empty() && a[0] == '-') {
            fatal("unknown flag: " + a);
        } else if (cli.names.empty() && !cli.runAll) {
            fatal("'" + a + "' is not a scenario name; "
                  "'awbsim --list-scenarios' lists them");
        } else {
            cli.ctx.args.push_back(a);
        }
    }
    return cli;
}

int
runScenarioCli(ScenarioCli &cli)
{
    std::vector<const Scenario *> to_run;
    if (cli.runAll) {
        to_run = ScenarioRegistry::instance().all();
    } else {
        for (const auto &n : cli.names)
            to_run.push_back(ScenarioRegistry::instance().find(n));
    }
    if (to_run.empty())
        fatal("no scenario named; try 'awbsim --list-scenarios'");

    Json results = Json::object();
    for (const Scenario *s : to_run) {
        for (int r = 0; r < cli.repeats; ++r) {
            cli.ctx.repeat = r;
            cli.ctx.result = Json::object();
            scenarioBanner(*s);
            s->run(cli.ctx);
        }
        if (cli.ctx.result.size() > 0)
            results.set(s->name, std::move(cli.ctx.result));
    }
    if (!cli.jsonPath.empty()) {
        if (results.size() == 0)
            warn("--json given but no selected scenario produced "
                 "machine-readable results; not writing " + cli.jsonPath);
        else {
            std::ofstream f(cli.jsonPath);
            if (!f) fatal("cannot write " + cli.jsonPath);
            f << results.dump(2);
            std::printf("\nscenario JSON written to %s\n",
                        cli.jsonPath.c_str());
        }
    }
    return 0;
}

} // namespace awb::driver
