/**
 * @file
 * vbench: host-time benchmark of the vspec engine, end to end and per
 * layer (see README.md for the workloads, metrics and baselines).
 *
 * A workload is a fixed list of cells, each one program x config run in
 * a fresh Engine, executed closed-loop on the vpar runner. The amount
 * of work is derived from --seconds and --seed alone, so two runs of
 * the same arguments do identical modeled work and differ only in host
 * time. Untraced runs print the end-to-end metrics; `--trace 1` runs the
 * same cells untraced and then traced, replays round-0 cells through
 * the layer entry points, writes the spans as Chrome trace JSON and
 * prints the per-layer metrics.
 *
 * Usage:
 *   vbench --workload W --seed N --seconds S --trace 0|1
 *          [--expected FILE] [--trace-out FILE] [--tiny]
 *   vbench --gen-expected FILE
 *
 * setup_s re-runs the binary with the same arguments plus --setup-only,
 * which sets up, prints its steady-clock time and exits.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bytecode/compiler.hh"
#include "frontend/parser.hh"
#include "harness/parallel.hh"
#include "ir/builder.hh"
#include "stats/stats.hh"
#include "support/fuzz_gen.hh"
#include "support/json.hh"
#include "verify/verify.hh"

#include "spans.hh"

extern char **environ;

using namespace vspec;
using namespace vbench;

namespace
{

// ---------------------------------------------------------------------
// Options and workloads
// ---------------------------------------------------------------------

enum class Kind : u8 { JitSteady, RuntimeMix, FuzzDiff, DetailedCore };

struct WorkloadDef
{
    const char *name;
    Kind kind;
    /** Nominal host seconds of one round at kJobs on the reference
     *  machine; --seconds / roundSeconds rounds are run. A constant, not
     *  a measurement, so the work done never depends on host speed. */
    double roundSeconds;
};

const WorkloadDef kWorkloads[] = {
    {"jit-steady", Kind::JitSteady, 3.1},
    {"runtime-mix", Kind::RuntimeMix, 1.9},
    {"fuzz-differential", Kind::FuzzDiff, 2.2},
    {"detailed-core", Kind::DetailedCore, 1.1},
};

/** Worker threads (clamped to nproc). */
constexpr u32 kJobs = 2;
/** p90 needs at least ten samples beyond it. */
constexpr size_t kMinCells = 110;
/** Cold set-ups, each in a fresh process; setup_s is their median. */
constexpr int kSetupReps = 7;
/** Sampler on/off replay pairs per round-0 cell, alternating order. */
constexpr int kSamplerPairs = 3;
/** Fuzz cells keep the engine's default 64 MiB heap: with tier-1's
 *  8 MiB a few generated programs in ten thousand run out of memory. */
constexpr u32 kFuzzProgramsPerRound = 50;

struct Options
{
    const WorkloadDef *workload = nullptr;
    u64 seed = 1;
    u32 seconds = 10;
    bool trace = false;
    bool tiny = false;
    bool setupOnly = false;  //!< set up, print the ready time, exit
    std::string expectedPath = "vbench/expected.json";
    std::string traceOut;
    std::string genExpected;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vbench: %s\n"
                 "usage: vbench --workload W --seed N --seconds S "
                 "--trace 0|1\n"
                 "              [--expected FILE] [--trace-out FILE] "
                 "[--tiny]\n"
                 "       vbench --gen-expected FILE\n"
                 "workloads: jit-steady runtime-mix fuzz-differential "
                 "detailed-core\n",
                 why);
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage((flag + " expects a number, got '" + text + "'").c_str());
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        std::string value;
        size_t eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (flag != "--tiny" && flag != "--setup-only") {
            if (i + 1 >= argc)
                usage((flag + " needs a value").c_str());
            value = argv[++i];
        }
        if (flag == "--workload") {
            for (const WorkloadDef &w : kWorkloads)
                if (value == w.name)
                    o.workload = &w;
            if (o.workload == nullptr)
                usage(("unknown workload '" + value + "'").c_str());
        } else if (flag == "--seed") {
            o.seed = parseU64(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<u32>(parseU64(flag, value));
            if (o.seconds == 0 || o.seconds > 600)
                usage("--seconds must be 1..600");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--expected") {
            o.expectedPath = value;
        } else if (flag == "--trace-out") {
            o.traceOut = value;
        } else if (flag == "--gen-expected") {
            o.genExpected = value;
        } else if (flag == "--tiny") {
            o.tiny = true;
        } else if (flag == "--setup-only") {
            o.setupOnly = true;
        } else {
            usage(("unknown flag '" + flag + "'").c_str());
        }
    }
    if (o.workload == nullptr && o.genExpected.empty())
        usage("--workload is required");
    return o;
}

/** Drop every VSPEC_* variable so no engine default reads the caller's
 *  environment (faults, tracing, verifier, predecode, register pools,
 *  jobs, the persistent cache, logging). */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; e++) {
        std::string kv = *e;
        if (kv.rfind("VSPEC_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("VSPEC_CACHE", "0", 1);
}

/**
 * Seconds from spawning this benchmark again with `--setup-only` to the
 * point where that fresh process would start its first cell: exec,
 * static init, loading expected outputs and building every program and
 * config. Negative if the child failed.
 */
double
coldSetupSeconds(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    char setup_only[] = "--setup-only";
    args.push_back(setup_only);
    args.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const u64 t0 = nowNs();
    pid_t pid = 0;
    int rc = posix_spawnp(&pid, argv[0], &actions, nullptr, args.data(),
                          environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        out.append(buf, static_cast<size_t>(n));
    close(fds[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status)
        || WEXITSTATUS(status) != 0)
        return -1.0;
    const u64 ready = std::strtoull(out.c_str(), nullptr, 10);
    return ready > t0 ? static_cast<double>(ready - t0) / 1e9 : -1.0;
}

u64
splitmix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

struct CellSpec
{
    std::string label;      //!< program + config, for messages
    size_t source = 0;      //!< index into Plan::sources
    EngineConfig config;
    u32 iterations = 0;
    /** Suite cells: committed interpreter-only checksum ("" = missing,
     *  which fails the cell). Fuzz JIT cells compare with their
     *  `partner`, the same program's interpreter-only cell, which is
     *  itself the `reference` and only has to complete. */
    std::string expected;
    long partner = -1;
    bool reference = false;
};

struct Plan
{
    std::vector<std::string> sources;
    std::vector<CellSpec> cells;
    size_t perRound = 0;
    u32 rounds = 0;
};

/** Config with every environment-sensitive knob set explicitly: no
 *  faults, tracing off, verifier off, predecode on, full pools. */
EngineConfig
hermeticConfig(RunConfig rc)
{
    rc.trace = TraceConfig{};
    rc.faults = FaultConfig::none();
    rc.verifyLevel = VerifyLevel::Off;
    rc.predecode = true;
    rc.maxFuelCycles = 0;
    EngineConfig cfg = engineConfigFor(rc);
    cfg.maxGprs = 0;
    cfg.maxFprs = 0;
    return cfg;
}

std::string
expectedKey(const Workload &w, u32 size, u32 iterations)
{
    return w.name + " size=" + std::to_string(size)
           + " iters=" + std::to_string(iterations);
}

using ExpectedTable = std::map<std::string, std::string>;

bool
inJitSteady(const Workload &w)
{
    return w.category == Category::Sparse || w.category == Category::Math
           || w.category == Category::Crypto;
}

bool
inRuntimeMix(const Workload &w)
{
    return !inJitSteady(w);
}

struct SuiteShape
{
    u32 iterations;
    u32 size;
};

/** Iterations and size of a suite program's cells in @p kind. */
SuiteShape
suiteShape(Kind kind, const Workload &w, bool tiny)
{
    switch (kind) {
      case Kind::JitSteady:  // the fig benches' iteration count
        return {tiny ? 4u : 20u, tiny ? w.gem5Size : w.defaultSize};
      case Kind::RuntimeMix:  // suite_runner's iteration count
        return {tiny ? 6u : 60u, tiny ? w.gem5Size : w.defaultSize};
      case Kind::DetailedCore:  // fig13's iteration count
        return {tiny ? 3u : 10u, tiny ? std::max(1u, w.gem5Size / 2)
                                      : w.gem5Size};
      case Kind::FuzzDiff:
        break;
    }
    return {0, 0};
}

std::vector<const Workload *>
suitePrograms(Kind kind)
{
    std::vector<const Workload *> ws;
    if (kind == Kind::DetailedCore)
        return gem5Subset();
    for (const Workload &w : suite()) {
        if ((kind == Kind::JitSteady && inJitSteady(w))
            || (kind == Kind::RuntimeMix && inRuntimeMix(w)))
            ws.push_back(&w);
    }
    return ws;
}

/** One round's suite cells (all cells use the round's jitter). */
void
addSuiteRound(Plan &plan, Kind kind, bool tiny, u32 jitter,
              const ExpectedTable &expected,
              std::map<std::string, size_t> &source_index)
{
    for (const Workload *w : suitePrograms(kind)) {
        SuiteShape shape = suiteShape(kind, *w, tiny);
        std::string skey = w->name + "#" + std::to_string(shape.size);
        auto [it, fresh] = source_index.emplace(skey, plan.sources.size());
        if (fresh)
            plan.sources.push_back(instantiate(*w, shape.size));
        auto found = expected.find(expectedKey(*w, shape.size,
                                               shape.iterations));
        std::string want = found != expected.end() ? found->second : "";

        std::vector<std::pair<std::string, RunConfig>> configs;
        RunConfig base;
        base.iterations = shape.iterations;
        base.size = shape.size;
        base.jitter = jitter;
        if (kind == Kind::JitSteady) {
            for (IsaFlavour isa : {IsaFlavour::Arm64Like,
                                   IsaFlavour::X64Like}) {
                RunConfig rc = base;
                rc.isa = isa;
                rc.samplerEnabled = true;
                rc.samplerPeriod = 211;
                configs.emplace_back(isaFlavourName(isa), rc);
            }
        } else if (kind == Kind::RuntimeMix) {
            for (bool jit : {true, false}) {
                RunConfig rc = base;
                rc.enableOptimization = jit;
                rc.samplerEnabled = jit;
                configs.emplace_back(jit ? "jit" : "interp", rc);
            }
        } else {
            for (const CpuConfig &core : {CpuConfig::inOrderA55(),
                                          CpuConfig::o3Kpg()}) {
                for (bool ext : {false, true}) {
                    RunConfig rc = base;
                    rc.cpu = core;
                    rc.smiExtension = ext;
                    rc.samplerEnabled = false;
                    configs.emplace_back(core.name + (ext ? "+smi" : ""),
                                         rc);
                }
            }
        }
        for (const auto &[name, rc] : configs) {
            CellSpec c;
            c.label = w->name + "/" + name;
            c.source = it->second;
            c.config = hermeticConfig(rc);
            c.iterations = rc.iterations;
            c.expected = want;
            plan.cells.push_back(std::move(c));
        }
    }
}

void
addFuzzRound(Plan &plan, bool tiny, u64 seed, u32 round)
{
    u32 programs = tiny ? 30 : kFuzzProgramsPerRound;
    for (u32 i = 0; i < programs; i++) {
        u64 fseed = splitmix(splitmix(seed) ^ (u64{round} << 32 | i));
        plan.sources.push_back(generateFuzzProgram(fseed));
        RunConfig rc;
        rc.iterations = tiny ? 3 : 6;  // past tier-up, deopt, reopt
        rc.samplerEnabled = false;
        for (bool jit : {false, true}) {
            rc.enableOptimization = jit;
            CellSpec c;
            c.label = "fuzz-" + std::to_string(fseed)
                      + (jit ? "/jit" : "/interp");
            c.source = plan.sources.size() - 1;
            c.config = hermeticConfig(rc);
            c.iterations = rc.iterations;
            c.partner = jit ? static_cast<long>(plan.cells.size()) - 1 : -1;
            c.reference = !jit;
            plan.cells.push_back(std::move(c));
        }
    }
}

Plan
buildPlan(const Options &o, const ExpectedTable &expected)
{
    Plan plan;
    std::map<std::string, size_t> source_index;
    const Kind kind = o.workload->kind;
    // The seed picks each round's jitter repeat (as the fig benches'
    // repeats 0..3) or its fuzz programs.
    auto add_round = [&](u32 r) {
        if (kind == Kind::FuzzDiff)
            addFuzzRound(plan, o.tiny, o.seed, r);
        else
            addSuiteRound(plan, kind, o.tiny,
                          static_cast<u32>((o.seed + r) % 4), expected,
                          source_index);
    };
    add_round(0);
    plan.perRound = plan.cells.size();
    u32 by_time = static_cast<u32>(
        std::lround(o.seconds / o.workload->roundSeconds));
    u32 by_count = static_cast<u32>(
        (kMinCells + plan.perRound - 1) / plan.perRound);
    plan.rounds = o.tiny ? 1 : std::max({1u, by_time, by_count});
    for (u32 r = 1; r < plan.rounds; r++)
        add_round(r);
    return plan;
}

bool
loadExpected(const std::string &path, ExpectedTable &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue doc;
    if (!parseJson(ss.str(), doc, err))
        return false;
    if (!doc.isObject()) {
        err = path + ": expected a JSON object";
        return false;
    }
    for (const auto &[key, value] : doc.object)
        if (value.isString())
            out[key] = value.string;
    return true;
}

// ---------------------------------------------------------------------
// Running one cell
// ---------------------------------------------------------------------

struct IterSample
{
    u64 ns = 0;  //!< thread CPU ns of the bench() call
    u64 interpCycles = 0;
    u64 commits = 0;
    u64 cycles = 0;
};

struct CellResult
{
    bool completed = false;
    std::string checksum;
    std::string error;

    /** Thread CPU ns, Engine construction -> first bench() return. */
    u64 startupNs = 0;
    u64 cpuNs = 0;      //!< thread CPU ns of the whole cell
    std::vector<IterSample> iters;

    u64 modeledCycles = 0;
    u64 interpCycles = 0;
    u64 deopts = 0;
    u64 compilations = 0;
    SimStats sim;
    u64 branches = 0;
    u64 mispredicts = 0;
    u64 allocBytes = 0;
    u64 gcCount = 0;
    u64 samples = 0;

    /** Mean over the last third of iterations (steady state). */
    double
    tailMean(u64 IterSample::*field) const
    {
        size_t start = iters.size() * 2 / 3;
        double sum = 0.0;
        for (size_t i = start; i < iters.size(); i++)
            sum += static_cast<double>(iters[i].*field);
        return iters.size() > start
            ? sum / static_cast<double>(iters.size() - start) : 0.0;
    }
};

using EngineHook = std::function<void(Engine &)>;

/**
 * Run one cell in a fresh Engine: construct, load (parse, bytecode
 * compile, top level), bench() x iterations, verify(). @p log records
 * a span around each of those calls; @p after runs on the engine once
 * verify() has returned. Failures are caught into the result.
 */
CellResult
runCell(const Plan &plan, const CellSpec &spec, SpanLog *log,
        const EngineHook &after = {})
{
    CellResult r;
    SpanScope cell_span(log, "cell");
    const u64 cpu0 = threadCpuNs();
    try {
        const u64 t0 = threadCpuNs();
        std::unique_ptr<Engine> engine;
        {
            SpanScope s(log, "runtime.engine_new");
            engine = std::make_unique<Engine>(spec.config);
        }
        {
            SpanScope s(log, "runtime.load");
            ProgramSource prog;
            {
                SpanScope p(log, "frontend.parse");
                prog = parseProgram(plan.sources[spec.source]);
            }
            FunctionId main_fn;
            {
                SpanScope c(log, "bytecode.compile");
                BytecodeCompiler compiler(engine->vm, engine->globals,
                                          engine->functions);
                main_fn = compiler.compileProgram(prog);
            }
            SpanScope t(log, "runtime.top_level");
            engine->invoke(main_fn, engine->vm.undefinedValue, {});
        }
        const TimingModel &tm = *engine->timing;
        r.iters.reserve(spec.iterations);
        for (u32 i = 0; i < spec.iterations; i++) {
            IterSample before{0, engine->interpreterCycles,
                              tm.stats.instructions, engine->totalCycles()};
            u64 a = threadCpuNs();
            {
                SpanScope b(log, "runtime.bench");
                engine->call("bench");
            }
            u64 b = threadCpuNs();
            if (i == 0)
                r.startupNs = b - t0;
            r.iters.push_back({b - a,
                               engine->interpreterCycles
                                   - before.interpCycles,
                               tm.stats.instructions - before.commits,
                               engine->totalCycles() - before.cycles});
        }
        {
            SpanScope v(log, "runtime.verify");
            r.checksum = engine->vm.display(engine->call("verify"));
        }
        r.completed = true;
        r.modeledCycles = engine->totalCycles();
        r.interpCycles = engine->interpreterCycles;
        r.deopts = engine->deoptLog.size();
        r.compilations = engine->compilations;
        r.sim = tm.stats;
        r.branches = tm.predictor.branches;
        r.mispredicts = tm.predictor.mispredicts;
        r.allocBytes = engine->vm.heap.stats().bytesAllocated;
        r.gcCount = engine->gc.collections();
        r.samples = engine->sampler.totalSamples;
        if (after)
            after(*engine);
        SpanScope d(log, "runtime.engine_delete");
        engine.reset();
    } catch (const EngineError &e) {
        r.completed = false;
        r.error = std::string(engineErrorKindName(e.kind)) + ": " + e.what();
    } catch (const std::exception &e) {
        r.completed = false;
        r.error = e.what();
    }
    r.cpuNs = threadCpuNs() - cpu0;
    return r;
}

/** Check every cell's output; returns the failed count and prints the
 *  first few failures to stderr. */
size_t
checkOutputs(const Plan &plan, const std::vector<CellResult> &res)
{
    size_t failed = 0;
    for (size_t i = 0; i < res.size(); i++) {
        const CellSpec &spec = plan.cells[i];
        const CellResult &r = res[i];
        std::string why;
        if (!r.completed) {
            why = "error: " + r.error;
        } else if (spec.partner >= 0) {
            const CellResult &ref = res[static_cast<size_t>(spec.partner)];
            if (!ref.completed || ref.checksum != r.checksum)
                why = "JIT checksum " + r.checksum + " != interpreter "
                      + (ref.completed ? ref.checksum : "(failed)");
        } else if (!spec.reference && r.checksum != spec.expected) {
            why = spec.expected.empty()
                ? "no expected checksum committed"
                : "checksum " + r.checksum + " != expected "
                      + spec.expected;
        }
        if (!why.empty()) {
            if (failed < 5)
                std::fprintf(stderr, "vbench: cell %zu %s failed: %s\n", i,
                             spec.label.c_str(), why.c_str());
            failed++;
        }
    }
    return failed;
}

/** FNV digest of every cell's modeled outcome, in cell order. */
u64
modeledDigest(const std::vector<CellResult> &res)
{
    u64 h = par::fnv1aStr("vbench");
    for (const CellResult &r : res) {
        h = par::fnv1aU64(r.modeledCycles, h);
        h = par::fnv1aU64(r.sim.instructions, h);
        h = par::fnv1aU64(r.deopts, h);
        h = par::fnv1aU64(r.compilations, h);
        h = par::fnv1aStr(r.completed ? r.checksum : "!" + r.error, h);
    }
    return h;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
geomean(const std::vector<double> &xs)
{
    double s = 0.0;
    size_t n = 0;
    for (double x : xs) {
        if (x > 0) {
            s += std::log(x);
            n++;
        }
    }
    return n == 0 ? 0.0 : std::exp(s / static_cast<double>(n));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Phase
{
    std::vector<CellResult> results;
    std::vector<SpanLog> logs;  //!< empty when untraced
    double wallS = 0.0;
};

Phase
runPhase(const Plan &plan, u32 jobs, bool traced)
{
    Phase p;
    if (traced)
        for (size_t i = 0; i < plan.cells.size(); i++)
            p.logs.emplace_back(static_cast<u32>(i));
    u64 t0 = nowNs();
    p.results = par::mapCells<CellResult>(
        jobs, plan.cells.size(), [&](size_t i) {
            return runCell(plan, plan.cells[i],
                           traced ? &p.logs[i] : nullptr);
        });
    p.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    return p;
}

std::vector<Metric>
endToEnd(const Phase &p, double setup_s, size_t failed)
{
    std::vector<double> startup, iter_ms, steady;
    double modeled = 0.0, cpu_ns = 0.0;
    for (const CellResult &r : p.results) {
        cpu_ns += static_cast<double>(r.cpuNs);
        if (!r.completed)
            continue;
        startup.push_back(static_cast<double>(r.startupNs) / 1e6);
        iter_ms.push_back(r.tailMean(&IterSample::ns) / 1e6);
        steady.push_back(r.tailMean(&IterSample::cycles));
        modeled += static_cast<double>(r.modeledCycles);
    }
    double n = static_cast<double>(p.results.size());
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", p.wallS, "s"},
        {"startup_ms_p50", stats::percentile(startup, 50), "ms"},
        {"startup_ms_p90", stats::percentile(startup, 90), "ms"},
        {"iter_ms_gm", geomean(iter_ms), "ms"},
        {"mcycles_per_s", ratio(modeled / 1e6, cpu_ns / 1e9), "Mcycles/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", 1.0 - static_cast<double>(failed) / n, "frac"},
        {"modeled_cycles_gm", geomean(steady), "cycles"},
    };
}

/** ns per unit over iterations passing @p keep. */
double
iterRate(const std::vector<CellResult> &res,
         const std::function<bool(const IterSample &)> &keep,
         u64 IterSample::*unit, double unit_scale)
{
    double ns = 0.0, units = 0.0;
    for (const CellResult &r : res)
        for (const IterSample &s : r.iters)
            if (keep(s)) {
                ns += static_cast<double>(s.ns);
                units += static_cast<double>(s.*unit);
            }
    return ratio(ns, units / unit_scale);
}

bool
simOnly(const IterSample &s)
{
    return s.interpCycles == 0 && s.commits > 0;
}

bool
interpOnly(const IterSample &s)
{
    return s.commits == 0 && s.interpCycles > 0;
}

/** Round-0 replay of one cell through the layer entry points. */
struct Replay
{
    double heapNewMs = 0.0;
    double timingModelNewUs = 0.0;
    u64 functions = 0;
    double buildUs = 0, passesUs = 0, codegenUs = 0, verifyUs = 0;
    u64 checksProven = 0, checksRemoved = 0, insts = 0, spills = 0;
    u64 verifyFailures = 0;
    /** One result per sampler pair, in pair order. */
    std::vector<CellResult> samplerOn;
    std::vector<CellResult> samplerOff;
};

/** Re-run every compiled function's final feedback through buildGraph,
 *  runPasses, generateCode and verifyCodeObject, timing each call. */
void
replayCompiles(Engine &engine, SpanLog &log, Replay &out)
{
    std::set<FunctionId> seen;
    for (const auto &code : engine.codeObjects) {
        if (!seen.insert(code->function).second)
            continue;
        const FunctionInfo &fn = engine.functions.at(code->function);
        CompilerEnv env{engine.vm, engine.globals, engine.functions};
        u64 t0 = nowNs();
        std::optional<Graph> graph;
        {
            SpanScope s(&log, "ir.build");
            graph = buildGraph(env, fn);
        }
        u64 t1 = nowNs();
        if (!graph.has_value())
            continue;
        PassConfig passes = engine.config.passes;
        passes.smiLoadFusion = engine.config.smiLoadExtension;
        PassStats ps;
        {
            SpanScope s(&log, "ir.passes");
            ps = runPasses(*graph, passes);
        }
        u64 t2 = nowNs();
        CodegenConfig cg;
        cg.flavour = engine.config.isa;
        cg.removeDeoptBranches = engine.config.removeDeoptBranches;
        cg.smiExtension = engine.config.smiLoadExtension;
        cg.mapCheckExtension = engine.config.mapCheckExtension;
        std::unique_ptr<CodeObject> replayed;
        {
            SpanScope s(&log, "backend.codegen");
            replayed = generateCode(env, *graph, cg);
        }
        u64 t3 = nowNs();
        bool ok;
        {
            SpanScope s(&log, "verify.code");
            ok = verifyCodeObject(*replayed).ok();
        }
        u64 t4 = nowNs();
        out.functions++;
        out.buildUs += static_cast<double>(t1 - t0) / 1e3;
        out.passesUs += static_cast<double>(t2 - t1) / 1e3;
        out.codegenUs += static_cast<double>(t3 - t2) / 1e3;
        out.verifyUs += static_cast<double>(t4 - t3) / 1e3;
        out.checksProven += ps.proof.totalProven();
        out.checksRemoved += ps.checksDeduped + ps.checksFolded
                             + ps.minusZeroElided + ps.checksShortCircuited
                             + ps.proof.elided;
        out.insts += replayed->code.size();
        out.spills += replayed->raStats.spillStores;
        out.verifyFailures += ok ? 0 : 1;
    }
}

Replay
replayCell(const Plan &plan, const CellSpec &spec, SpanLog &log)
{
    Replay out;
    SpanScope root(&log, "replay");
    {
        u64 t0 = nowNs();
        std::unique_ptr<Heap> heap;
        {
            SpanScope s(&log, "vm.heap_new");
            heap = std::make_unique<Heap>(spec.config.heapSize);
        }
        out.heapNewMs = static_cast<double>(nowNs() - t0) / 1e6;
    }
    {
        u64 t0 = nowNs();
        std::unique_ptr<TimingModel> tm;
        {
            SpanScope s(&log, "sim.timing_model_new");
            tm = makeTimingModel(spec.config.cpu);
        }
        out.timingModelNewUs = static_cast<double>(nowNs() - t0) / 1e3;
    }
    // The same cell with the sampler on and off, back to back, in
    // alternating order; the first sampler-off engine replays compiles.
    for (int pair = 0; pair < kSamplerPairs; pair++) {
        for (int k = 0; k < 2; k++) {
            CellSpec c = spec;
            // Every config carries period 211.
            c.config.samplerEnabled = (pair + k) % 2 == 0;
            EngineHook hook;
            if (!c.config.samplerEnabled && pair == 0)
                hook = [&](Engine &engine) {
                    replayCompiles(engine, log, out);
                };
            SpanScope s(&log, c.config.samplerEnabled
                                  ? "profiler.sampler_on"
                                  : "profiler.sampler_off");
            (c.config.samplerEnabled ? out.samplerOn : out.samplerOff)
                .push_back(runCell(plan, c, nullptr, hook));
        }
    }
    return out;
}

/** Sampler cost per sim-only commit: for each pair, the on-minus-off
 *  rate pooled over every replayed cell. */
std::vector<double>
samplerCostPerPair(const std::vector<Replay> &replays)
{
    std::vector<double> diffs;
    for (int pair = 0; pair < kSamplerPairs; pair++) {
        std::vector<CellResult> on, off;
        for (const Replay &rp : replays) {
            on.push_back(rp.samplerOn[static_cast<size_t>(pair)]);
            off.push_back(rp.samplerOff[static_cast<size_t>(pair)]);
        }
        diffs.push_back(iterRate(on, simOnly, &IterSample::commits, 1.0)
                        - iterRate(off, simOnly, &IterSample::commits, 1.0));
    }
    return diffs;
}

std::vector<Metric>
perLayer(const Plan &plan, const Phase &traced,
         const std::vector<Replay> &replays, double sampler_cost,
         double overhead_s, double unaccounted)
{
    const auto &res = traced.results;
    double engine_new = 0, load = 0, parse = 0, compile = 0;
    double kb = 0;
    size_t n_cells = 0;
    for (size_t i = 0; i < traced.logs.size(); i++) {
        for (const Span &s : traced.logs[i].spans) {
            double ns = static_cast<double>(s.durNs());
            if (std::strcmp(s.name, "runtime.engine_new") == 0) {
                engine_new += ns;
                n_cells++;
            } else if (std::strcmp(s.name, "runtime.load") == 0) {
                load += ns;
            } else if (std::strcmp(s.name, "frontend.parse") == 0) {
                parse += ns;
                kb += static_cast<double>(
                          plan.sources[plan.cells[i].source].size())
                      / 1024.0;
            } else if (std::strcmp(s.name, "bytecode.compile") == 0) {
                compile += ns;
            }
        }
    }
    u64 interp = 0, allocs = 0, gcs = 0, comps = 0, deopts = 0, samples = 0;
    SimStats sim;
    u64 branches = 0, mispredicts = 0;
    for (const CellResult &r : res) {
        interp += r.interpCycles;
        allocs += r.allocBytes;
        gcs += r.gcCount;
        comps += r.compilations;
        deopts += r.deopts;
        samples += r.samples;
        sim += r.sim;
        branches += r.branches;
        mispredicts += r.mispredicts;
    }

    Replay sum;
    for (const Replay &rp : replays) {
        sum.heapNewMs += rp.heapNewMs;
        sum.timingModelNewUs += rp.timingModelNewUs;
        sum.functions += rp.functions;
        sum.buildUs += rp.buildUs;
        sum.passesUs += rp.passesUs;
        sum.codegenUs += rp.codegenUs;
        sum.verifyUs += rp.verifyUs;
        sum.checksProven += rp.checksProven;
        sum.checksRemoved += rp.checksRemoved;
        sum.insts += rp.insts;
        sum.spills += rp.spills;
    }
    double nr = static_cast<double>(replays.size());
    double nf = static_cast<double>(sum.functions);
    double nc = static_cast<double>(n_cells);
    auto dbl = [](u64 v) { return static_cast<double>(v); };
    return {
        {"vm.heap_new_ms", ratio(sum.heapNewMs, nr), "ms"},
        {"runtime.engine_new_ms", ratio(engine_new / 1e6, nc), "ms"},
        {"sim.timing_model_new_us", ratio(sum.timingModelNewUs, nr), "us"},
        {"frontend.parse_us_per_kb", ratio(parse / 1e3, kb), "us/KB"},
        {"bytecode.compile_us_per_kb", ratio(compile / 1e3, kb), "us/KB"},
        {"runtime.load_ms", ratio(load / 1e6, nc), "ms"},
        {"ir.build_us", ratio(sum.buildUs, nf), "us"},
        {"ir.passes_us", ratio(sum.passesUs, nf), "us"},
        {"backend.codegen_us", ratio(sum.codegenUs, nf), "us"},
        {"verify.code_us", ratio(sum.verifyUs, nf), "us"},
        {"ir.checks_proven", dbl(sum.checksProven), "count"},
        {"ir.checks_removed", dbl(sum.checksRemoved), "count"},
        {"backend.insts", dbl(sum.insts), "count"},
        {"backend.spills", dbl(sum.spills), "count"},
        {"interp.ns_per_kcycle",
         iterRate(res, interpOnly, &IterSample::interpCycles, 1e3),
         "ns/kcycle"},
        {"interp.mcycles", dbl(interp) / 1e6, "Mcycles"},
        {"vm.alloc_mb", dbl(allocs) / (1024.0 * 1024.0), "MB"},
        {"vm.gc_count", dbl(gcs), "count"},
        {"runtime.compilations", dbl(comps), "count"},
        {"runtime.deopts", dbl(deopts), "count"},
        {"sim.ns_per_commit",
         iterRate(res, simOnly, &IterSample::commits, 1.0), "ns/commit"},
        {"sim.commits_m", dbl(sim.instructions) / 1e6, "Mcommits"},
        {"sim.ipc", ratio(dbl(sim.instructions), dbl(sim.cycles)),
         "inst/cycle"},
        {"sim.l1_miss_rate",
         ratio(dbl(sim.l1Misses), dbl(sim.loads + sim.stores)), "frac"},
        {"sim.mispredict_rate", ratio(dbl(mispredicts), dbl(branches)),
         "frac"},
        {"sim.check_inst_frac",
         ratio(dbl(sim.checkInstructions), dbl(sim.instructions)), "frac"},
        {"profiler.ns_per_commit", sampler_cost, "ns/commit"},
        {"profiler.samples", dbl(samples), "count"},
        {"trace.overhead_s", overhead_s, "s"},
        {"trace.unaccounted_frac", unaccounted, "frac"},
    };
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.9g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": "
               + num + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Expected-checksum generation (interpreter-only runs)
// ---------------------------------------------------------------------

int
generateExpected(const std::string &path)
{
    struct Job
    {
        const Workload *w;
        SuiteShape shape;
    };
    std::map<std::string, Job> jobs;
    for (const WorkloadDef &def : kWorkloads) {
        if (def.kind == Kind::FuzzDiff)
            continue;
        for (bool tiny : {false, true})
            for (const Workload *w : suitePrograms(def.kind)) {
                SuiteShape s = suiteShape(def.kind, *w, tiny);
                jobs.emplace(expectedKey(*w, s.size, s.iterations),
                             Job{w, s});
            }
    }
    std::vector<std::pair<std::string, Job>> list(jobs.begin(), jobs.end());
    u32 nproc = std::max(1u, std::thread::hardware_concurrency());
    auto sums = par::mapCells<std::string>(nproc, list.size(), [&](size_t i) {
        const Job &job = list[i].second;
        RunConfig rc;
        rc.iterations = job.shape.iterations;
        rc.size = job.shape.size;
        rc.enableOptimization = false;
        rc.samplerEnabled = false;
        Plan plan;
        plan.sources.push_back(instantiate(*job.w, job.shape.size));
        CellSpec spec;
        spec.config = hermeticConfig(rc);
        spec.iterations = rc.iterations;
        CellResult r = runCell(plan, spec, nullptr);
        if (!r.completed)
            vpanic("interpreter run of " + list[i].first
                   + " failed: " + r.error);
        return r.checksum;
    });
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "vbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fputs("{\n", f);
    for (size_t i = 0; i < list.size(); i++)
        std::fprintf(f, "  \"%s\": \"%s\"%s\n",
                     jsonEscape(list[i].first).c_str(),
                     jsonEscape(sums[i]).c_str(),
                     i + 1 < list.size() ? "," : "");
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("wrote %zu expected checksums to %s\n", list.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    Options o = parseOptions(argc, argv);
    if (!o.genExpected.empty())
        return generateExpected(o.genExpected);

    // Set-up: load expected outputs and build every program and config.
    Plan plan;
    {
        ExpectedTable expected;
        std::string err;
        if (o.workload->kind != Kind::FuzzDiff
            && !loadExpected(o.expectedPath, expected, err)) {
            std::fprintf(stderr, "vbench: %s\n", err.c_str());
            return 1;
        }
        plan = buildPlan(o, expected);
    }
    if (o.setupOnly) {
        std::printf("%llu\n", static_cast<unsigned long long>(nowNs()));
        return 0;
    }

    const u32 nproc = std::max(1u, std::thread::hardware_concurrency());
    const u32 jobs = std::min(kJobs, nproc);
    std::printf("vbench: workload=%s seed=%llu seconds=%u trace=%d "
                "tiny=%d jobs=%u nproc=%u build=%s\n",
                o.workload->name, static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.tiny ? 1 : 0, jobs, nproc,
                VBENCH_BUILD_TYPE);
    std::printf("vbench: config faults=none trace=off verify=off "
                "predecode=on gprs=full fprs=full cache=off "
                "env=VSPEC_*-cleared\n");
    std::printf("vbench: cells=%zu rounds=%u cells_per_round=%zu "
                "programs=%zu\n",
                plan.cells.size(), plan.rounds, plan.perRound,
                plan.sources.size());

    // setup_s: the median of several cold set-ups, each in a fresh
    // process from spawn to where the first cell would start.
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; rep++) {
        double s = coldSetupSeconds(argc, argv);
        if (s < 0) {
            std::fprintf(stderr, "vbench: cold set-up run failed\n");
            return 1;
        }
        setup_times.push_back(s);
    }
    const double setup_s = stats::median(setup_times);
    std::printf("vbench: cold setup reps=%zu min=%.6fs median=%.6fs "
                "max=%.6fs\n",
                setup_times.size(),
                *std::min_element(setup_times.begin(), setup_times.end()),
                setup_s,
                *std::max_element(setup_times.begin(), setup_times.end()));

    // Untimed warm-up of a few round-0 cells, so the measured phases
    // start with the allocator and page cache already settled.
    par::mapCells<CellResult>(
        jobs, std::min<size_t>(plan.perRound, 4 * jobs), [&](size_t i) {
            return runCell(plan, plan.cells[i], nullptr);
        });

    Phase plain = runPhase(plan, jobs, false);
    size_t failed = checkOutputs(plan, plain.results);
    u64 digest = modeledDigest(plain.results);
    std::printf("vbench: modeled digest %016llx\n",
                static_cast<unsigned long long>(digest));
    std::printf("vbench: startup samples=%zu failed_frac=%.6f\n",
                plain.results.size(),
                static_cast<double>(failed)
                    / static_cast<double>(plain.results.size()));

    if (!o.trace) {
        std::vector<Metric> metrics = endToEnd(plain, setup_s, failed);
        for (const Metric &m : metrics)
            std::printf("  %-20s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        printResult(failed == 0, plain.results.size(), failed, metrics);
        return 0;
    }

    // Traced run: the same cells with spans, then round-0 replays.
    Phase traced = runPhase(plan, jobs, true);
    size_t traced_failed = checkOutputs(plan, traced.results);
    u64 traced_digest = modeledDigest(traced.results);
    bool digest_ok = traced_digest == digest;
    std::printf("vbench: traced digest %016llx (%s)\n",
                static_cast<unsigned long long>(traced_digest),
                digest_ok ? "matches" : "DIFFERS");

    std::vector<SpanLog> replay_logs;
    for (size_t i = 0; i < plan.perRound; i++)
        replay_logs.emplace_back(static_cast<u32>(i));
    auto replays = par::mapCells<Replay>(jobs, plan.perRound, [&](size_t i) {
        return replayCell(plan, plan.cells[i], replay_logs[i]);
    });

    // The layer spans' self times must cover the traced wall time x
    // workers. The root "cell" span's self time is the benchmark's own
    // bookkeeping between layer calls, so it is left out: a layer call
    // that lost its span shows up there, not as covered time.
    auto self = selfTimes(traced.logs);
    double layer_ns = 0.0;
    for (const auto &[name, ns] : self)
        if (name != "cell")
            layer_ns += ns;
    double cell_self_ns = self.count("cell") ? self.at("cell") : 0.0;
    double busy = static_cast<double>(
                      std::min<size_t>(jobs, plan.cells.size()))
                  * traced.wallS * 1e9;
    double unaccounted = 1.0 - layer_ns / busy;
    std::printf("vbench: traced self time by span (wall %.3fs x %u "
                "workers):\n",
                traced.wallS, jobs);
    for (const auto &[name, ns] : self)
        std::printf("  %-24s %10.3f s  %5.1f%%\n", name.c_str(), ns / 1e9,
                    100.0 * ns / busy);
    std::printf("vbench: layer self times cover %.2f%% of worker wall time "
                "(%s); cell bookkeeping %.2f%%, workers idle %.2f%%\n",
                100.0 * layer_ns / busy,
                unaccounted <= 0.05 ? "reconciled" : "NOT reconciled",
                100.0 * cell_self_ns / busy,
                100.0 * (busy - layer_ns - cell_self_ns) / busy);

    std::vector<double> sampler = samplerCostPerPair(replays);
    const double sampler_cost = stats::median(sampler);
    const double sampler_lo = *std::min_element(sampler.begin(),
                                                sampler.end());
    const double sampler_hi = *std::max_element(sampler.begin(),
                                                sampler.end());
    std::printf("vbench: sampler cost %.3f ns/commit over %d pairs "
                "[%.3f, %.3f] (%s)\n",
                sampler_cost, kSamplerPairs, sampler_lo, sampler_hi,
                sampler_lo <= 0.0 && sampler_hi >= 0.0
                    ? "unresolved: the spread covers zero"
                    : "resolved");
    u64 verify_failures = 0;
    for (const Replay &rp : replays)
        verify_failures += rp.verifyFailures;
    if (verify_failures != 0)
        std::printf("vbench: %llu replayed code objects failed "
                    "verification\n",
                    static_cast<unsigned long long>(verify_failures));

    if (!o.traceOut.empty()
        && !writeChromeTrace(o.traceOut, {&traced.logs, &replay_logs}))
        std::fprintf(stderr, "vbench: cannot write %s\n",
                     o.traceOut.c_str());

    std::vector<Metric> metrics =
        perLayer(plan, traced, replays, sampler_cost,
                 traced.wallS - plain.wallS, unaccounted);
    for (const Metric &m : metrics)
        std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    size_t all_failed = failed + traced_failed;
    printResult(all_failed == 0 && digest_ok && verify_failures == 0,
                plain.results.size() + traced.results.size(), all_failed,
                metrics);
    return 0;
}
