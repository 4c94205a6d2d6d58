#include "driver/bench_harness.hpp"

#include <cstdio>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "driver/scenario.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"
#include "serve/scheduler.hpp"

namespace awb::driver {

namespace {

/** Column the help text of a flag starts at, and the wrap width. */
constexpr std::size_t kHelpColumn = 26;
constexpr std::size_t kWidth = 79;

std::string
metavar(const BenchFlag &f)
{
    switch (f.kind) {
      case BenchArg::Int:
      case BenchArg::Uint: return f.list ? "n1,n2,.." : "N";
      case BenchArg::Real: return f.list ? "r1,r2,.." : "F";
      case BenchArg::Dataset:
      case BenchArg::Discipline: return f.list ? "a,b,.." : "D";
      case BenchArg::Policy:
      case BenchArg::Platform: return f.list ? "p1,.." : "P";
    }
    return "X";
}

/** Parse one entry of `f` and return its canonical text; fatal() on a
 *  malformed number or an unknown registry name, like the loaders. */
std::string
canonical(const BenchFlag &f, const std::string &v)
{
    const std::string &flag = f.names.front();
    switch (f.kind) {
      case BenchArg::Int: parseInt(flag, v); return v;
      case BenchArg::Uint: parseUint(flag, v); return v;
      case BenchArg::Real: parseDouble(flag, v); return v;
      case BenchArg::Dataset: return findDataset(v).name;
      case BenchArg::Policy: return PolicyRegistry::instance().get(v).name;
      case BenchArg::Platform: return findPlatform(v).name;
      case BenchArg::Discipline:
        return serve::DisciplineRegistry::instance().get(v).name;
    }
    return v;
}

std::vector<std::string>
parseValue(const BenchFlag &f, const std::string &v)
{
    std::vector<std::string> out;
    for (const auto &item : f.list ? splitCsv(v)
                                   : std::vector<std::string>{v})
        out.push_back(canonical(f, item));
    return out;
}

/** Range checks, run once every flag is parsed. */
void
check(const BenchFlag &f, const std::vector<std::string> &items)
{
    const std::string &flag = f.names.front();
    if (items.size() < f.minItems)
        fatal(f.tooFew.empty() ? flag + " must not be empty" : f.tooFew);
    if (f.kind != BenchArg::Int) return;
    for (const auto &v : items)
        if (parseInt(flag, v) < f.min)
            fatal(flag + (f.list ? " entries" : "") + " must be >= " +
                  std::to_string(f.min));
}

/** Append the space-separated words of `text` to `out`, which ends at
 *  column `col`, wrapping at kWidth to `indent` spaces; `tail` is one
 *  more word that is never broken. */
void
wrap(std::string &out, std::size_t col, std::size_t indent,
     const std::string &text, const std::string &tail = "")
{
    std::vector<std::string> words;
    std::size_t i = 0;
    while (i < text.size()) {
        std::size_t j = text.find(' ', i);
        if (j == std::string::npos) j = text.size();
        if (j > i) words.push_back(text.substr(i, j - i));
        i = j + 1;
    }
    if (!tail.empty()) words.push_back(tail);
    for (std::size_t w = 0; w < words.size(); ++w) {
        if (w > 0 && col + 1 + words[w].size() > kWidth) {
            out += "\n" + std::string(indent, ' ');
            col = indent;
        } else if (w > 0) {
            out += ' ';
            ++col;
        }
        out += words[w];
        col += words[w].size();
    }
    out += '\n';
}

/** One usage line: flag spellings and metavar, then the wrapped help
 *  ending in the default. */
void
flagLine(std::string &out, const std::string &lead, const std::string &help,
         const std::string &default_value)
{
    std::string head = "      " + lead;
    head += head.size() + 2 <= kHelpColumn
        ? std::string(kHelpColumn - head.size(), ' ')
        : "\n" + std::string(kHelpColumn, ' ');
    out += head;
    wrap(out, kHelpColumn, kHelpColumn, help,
         "(default " + default_value + ")");
}

} // namespace

BenchFlag &
BenchFlag::alias(std::string name)
{
    names.push_back(std::move(name));
    return *this;
}

BenchFlag &
BenchFlag::atLeast(int v)
{
    min = v;
    return *this;
}

BenchFlag &
BenchFlag::needs(std::size_t items, std::string message)
{
    minItems = items;
    tooFew = std::move(message);
    return *this;
}

BenchFlag
benchFlag(std::string name, BenchArg kind, std::string default_value,
          std::string help)
{
    BenchFlag f;
    f.names = {std::move(name)};
    f.kind = kind;
    f.defaultValue = std::move(default_value);
    f.help = std::move(help);
    return f;
}

BenchFlag
benchList(std::string name, BenchArg kind, std::string default_value,
          std::string help)
{
    BenchFlag f = benchFlag(std::move(name), kind, std::move(default_value),
                            std::move(help));
    f.list = true;
    return f;
}

BenchFlag
seedFlag()
{
    return benchFlag("--seed", BenchArg::Uint, "1", "global seed");
}

BenchFlag
scaleFlag()
{
    return benchFlag("--scale", BenchArg::Real, "1.0",
                     "dataset node-count scale");
}

const std::vector<std::string> &
BenchArgs::items(const std::string &flag) const
{
    auto it = values_.find(flag);
    if (it == values_.end()) panic("bench flag " + flag + " not declared");
    return it->second;
}

std::string
BenchArgs::text(const std::string &flag) const
{
    std::string out;
    for (const auto &v : items(flag)) out += (out.empty() ? "" : ",") + v;
    return out;
}

const std::string &
BenchArgs::str(const std::string &flag) const
{
    return items(flag).front();
}

int
BenchArgs::integer(const std::string &flag) const
{
    return parseInt(flag, str(flag));
}

std::uint64_t
BenchArgs::uinteger(const std::string &flag) const
{
    return parseUint(flag, str(flag));
}

double
BenchArgs::real(const std::string &flag) const
{
    return parseDouble(flag, str(flag));
}

std::vector<int>
BenchArgs::integers(const std::string &flag) const
{
    std::vector<int> out;
    for (const auto &v : items(flag)) out.push_back(parseInt(flag, v));
    return out;
}

std::vector<double>
BenchArgs::reals(const std::string &flag) const
{
    std::vector<double> out;
    for (const auto &v : items(flag)) out.push_back(parseDouble(flag, v));
    return out;
}

BenchArgs
BenchSpec::parse(const std::vector<std::string> &args) const
{
    BenchArgs out;
    out.jsonPath = "BENCH_" + name + ".json";
    std::map<std::string, const BenchFlag *> by_name;
    for (const BenchFlag &f : flags)
        for (const auto &n : f.names) by_name[n] = &f;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto it = by_name.find(a);
        if (a != "--json" && it == by_name.end())
            fatal("unknown bench-" + name + " flag: " + a);
        const std::string flag =
            a == "--json" ? a : it->second->names.front();
        if (i + 1 >= args.size()) fatal(flag + " needs a value");
        const std::string &v = args[++i];
        if (a == "--json")
            out.jsonPath = v;
        else
            out.values_[flag] = parseValue(*it->second, v);
    }
    for (const BenchFlag &f : flags)
        if (!out.values_.count(f.names.front()))
            out.values_[f.names.front()] = parseValue(f, f.defaultValue);
    for (const BenchFlag &f : flags) check(f, out.values_[f.names.front()]);
    return out;
}

std::string
BenchSpec::usage() const
{
    std::string out = "  awbsim --bench-" + name + " [options]\n      ";
    wrap(out, 6, 6, summary);
    for (const BenchFlag &f : flags) {
        std::string lead;
        for (const auto &n : f.names)
            lead += (lead.empty() ? "" : " / ") + n;
        flagLine(out, lead + " " + metavar(f), f.help, f.defaultValue);
    }
    flagLine(out, "--json FILE", "output document, '-' = stdout",
             "BENCH_" + name + ".json");
    return out;
}

const std::vector<BenchSpec> &
benchSpecs()
{
    static const std::vector<BenchSpec> specs = {
        engineBench(),  memoryBench(),  scaleoutBench(),
        dynamicBench(), spgemmBench(), servingBench()};
    return specs;
}

int
runBench(const BenchSpec &spec, const std::vector<std::string> &args)
{
    const BenchArgs parsed = spec.parse(args);
    BenchReport report;
    report.doc.set("schema", "awbsim-bench-" + spec.name + "-v1");
    spec.run(parsed, report);
    std::printf("%s", report.table.c_str());
    writeJsonDoc(report.doc, parsed.jsonPath, "bench-" + spec.name);

    int failed = 0;
    for (const BenchGate &g : report.gates) {
        if (g.pass) continue;
        std::fprintf(stderr, "bench-%s: %s GATE FAILED — %s\n",
                     spec.name.c_str(), g.name.c_str(), g.message.c_str());
        ++failed;
    }
    return failed ? 1 : 0;
}

void
setGateFields(Json &summary, const std::vector<BenchGate> &gates)
{
    for (const BenchGate &g : gates) summary.set(g.name, g.pass);
}

exec::RunResult
benchRun(const std::string &bench, const exec::RunRequest &req)
{
    exec::RunResult r = exec::run(req);
    if (!r.ok)
        fatal("--bench-" + bench + " " + req.dataset + "@" +
              std::to_string(req.pes) + " " + req.policy + ": " + r.error);
    return r;
}

} // namespace awb::driver
