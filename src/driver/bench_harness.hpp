/**
 * @file
 * The one benchmark harness behind every `awbsim --bench-<name>`
 * command. A benchmark is a BenchSpec: a name, a one-line summary, a
 * flag table and a run function. The harness does the rest the same
 * way for all of them: it parses and range-checks the flags against the
 * table, seeds the document with its `awbsim-bench-<name>-v1` schema,
 * runs the spec, prints its table, writes the JSON document
 * (`BENCH_<name>.json` by default, `-` = stdout) and turns failed gates
 * into stderr lines and exit code 1. `awbsim --help` renders each
 * bench's usage from the same table, so the printed defaults are the
 * defaults used.
 *
 * The specs live in bench/bench_*.cpp; each keeps only its point loop,
 * document rows, table columns and gate conditions.
 */

#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/json.hpp"
#include "exec/run.hpp"

namespace awb::driver {

/** How a flag's value is parsed and validated. */
enum class BenchArg
{
    Int,         ///< parseInt; `min` bounds every entry
    Uint,        ///< parseUint
    Real,        ///< parseDouble
    Dataset,     ///< a registered dataset (canonicalized)
    Policy,      ///< a registered balance policy (canonicalized)
    Platform,    ///< a registered memory platform (canonicalized)
    Discipline,  ///< a registered serving discipline (canonicalized)
};

/** One row of a bench's flag table. */
struct BenchFlag
{
    std::vector<std::string> names;  ///< canonical spelling, then aliases
    BenchArg kind = BenchArg::Int;
    bool list = false;               ///< comma-separated value
    std::string defaultValue;        ///< parsed like a command-line value
    std::string help;
    int min = INT_MIN;               ///< Int: smallest accepted entry
    std::size_t minItems = 0;        ///< list: fewest accepted entries
    std::string tooFew;              ///< error below minItems ("" = generic)

    BenchFlag &alias(std::string name);
    BenchFlag &atLeast(int v);
    BenchFlag &needs(std::size_t items, std::string message = "");
};

/** A scalar flag. */
BenchFlag benchFlag(std::string name, BenchArg kind,
                    std::string default_value, std::string help);
/** A comma-separated list flag. */
BenchFlag benchList(std::string name, BenchArg kind,
                    std::string default_value, std::string help);
/** The `--seed` and `--scale` flags most benches share. */
BenchFlag seedFlag();
BenchFlag scaleFlag();

/** Parsed, validated flag values keyed by canonical flag name. Every
 *  flag of the spec is present (its default when not given). */
class BenchArgs
{
  public:
    /** The entries of a flag, canonicalized, as text. */
    const std::vector<std::string> &items(const std::string &flag) const;
    /** The entries joined with commas (the flag's value as text). */
    std::string text(const std::string &flag) const;

    const std::string &str(const std::string &flag) const;
    int integer(const std::string &flag) const;
    std::uint64_t uinteger(const std::string &flag) const;
    double real(const std::string &flag) const;
    std::vector<int> integers(const std::string &flag) const;
    std::vector<double> reals(const std::string &flag) const;

    std::string jsonPath;  ///< the --json target

  private:
    friend struct BenchSpec;
    std::map<std::string, std::vector<std::string>> values_;
};

/** A named pass/fail condition of a bench run. */
struct BenchGate
{
    std::string name;     ///< its summary key, e.g. "deterministic"
    bool pass = true;
    std::string message;  ///< what failing means, printed on failure
};

/** What a run hands back to the harness. */
struct BenchReport
{
    Json doc = Json::object();  ///< arrives holding only its "schema"
    std::string table;          ///< rendered table plus summary lines
    std::vector<BenchGate> gates;
};

/** A declared benchmark. */
struct BenchSpec
{
    std::string name;     ///< --bench-<name>, BENCH_<name>.json
    std::string summary;  ///< one-line description for the usage text
    std::vector<BenchFlag> flags;
    std::function<void(const BenchArgs &, BenchReport &)> run;

    /** Parse `args` against the flag table; fatal() on bad input with
     *  the same messages the per-bench parsers gave. */
    BenchArgs parse(const std::vector<std::string> &args) const;
    /** The usage section `awbsim --help` prints. */
    std::string usage() const;
};

/** Every benchmark awbsim knows, in usage order. */
const std::vector<BenchSpec> &benchSpecs();

/** Parse, run, print, write and gate; returns the exit code. */
int runBench(const BenchSpec &spec, const std::vector<std::string> &args);

/** `summary.set(gate.name, gate.pass)` for each gate, in order. */
void setGateFields(Json &summary, const std::vector<BenchGate> &gates);

/** exec::run(req); fatal() naming the bench and point when it fails. */
exec::RunResult benchRun(const std::string &bench,
                         const exec::RunRequest &req);

/** A JSON array of `values`. */
template <class T>
Json
jsonArray(const std::vector<T> &values)
{
    Json out = Json::array();
    for (const T &v : values) out.push(v);
    return out;
}

/** The specs (bench/bench_*.cpp). */
BenchSpec engineBench();
BenchSpec memoryBench();
BenchSpec scaleoutBench();
BenchSpec dynamicBench();
BenchSpec spgemmBench();
BenchSpec servingBench();

} // namespace awb::driver
