/**
 * @file
 * compile_zoo: cold compiles of every Table 7 PolyBench kernel (size 32,
 * ZU3EG), every Table 8 DNN model (VU9P SLR) and LeNet b1/b10 (PYNQ-Z2),
 * each under HIDA, ScaleHLS (where scaleHlsSupports) and Vitis.
 *
 * Op: one (program, flow) compile — frontend build -> compile() ->
 * emitHlsCpp. A block is one pass over every op in a seeded order;
 * rate_1t is the median per-block compile rate on one thread, rate the
 * same with kLoadThreads threads pulling ops from the block (modules are
 * disjoint, so compile() is safe to run concurrently). Latency samples
 * are per op, at 1 thread.
 *
 * Output checks: the HIDA compiles the golden QoR tables pin
 * (tests/golden/qor_table7_polybench.golden, qor_table8_dnn.golden) must
 * reproduce their golden line; every op's QoR line plus emitted code must
 * match its pinned regression digest; and once per run LeNet b1 lowered
 * by each flow must compute what the tensor graph computes (src/interp).
 */

#include <atomic>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "references.h"
#include "src/driver/driver.h"
#include "src/emitter/hls_emitter.h"
#include "src/interp/interpreter.h"
#include "src/ir/registry.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace perfbench {

using namespace hida;

namespace {

constexpr int64_t kPolybenchSize = 32;
/**
 * Passes over the zoo per block. One-thread block rates on a shared host
 * are bimodal (fast and slow stretches of ~0.1 s), and the median of
 * short blocks jumps between the modes: with 2-pass blocks the run-to-run
 * spread of rate_1t was 0.13-0.33, with 4-pass blocks 0.07. Parallel
 * blocks also need the work so their last large compiles do not dominate.
 */
constexpr size_t kPassesPerBlock = 4;

/** One program of the zoo and how to build it. */
struct Program {
    enum Kind { kPolybench, kDnn, kLeNet };
    std::string name;
    Kind kind = kPolybench;
    int64_t batch = 1;  ///< LeNet only.
    TargetDevice device;

    OwnedModule
    build() const
    {
        switch (kind) {
          case kPolybench:
            return buildPolybenchKernel(name, kPolybenchSize);
          case kDnn:
            return buildDnnModel(name);
          case kLeNet:
            return buildLeNet(batch);
        }
        return OwnedModule();
    }
};

/** One op: a program under one flow, with its expected output. */
struct ZooOp {
    size_t program = 0;
    Flow flow = Flow::kHida;
    std::string key;     ///< "<program>/<flow>".
    std::string golden;  ///< Golden QoR line ("" when none is pinned).
};

/** What one compile produced. */
struct Output {
    std::string qorLine;
    uint64_t digest = 0;
    size_t codeBytes = 0;
    size_t irOps = 0;
};

/** The golden table's line format (tests/models_emitter_test.cc). */
std::string
formatQorLine(const std::string& name, const DesignQor& qor)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-14s latency=%lld interval=%.4f lut=%lld ff=%lld "
                  "dsp=%lld bram=%lld\n",
                  name.c_str(), static_cast<long long>(qor.latencyCycles),
                  qor.intervalCycles, static_cast<long long>(qor.res.lut),
                  static_cast<long long>(qor.res.ff),
                  static_cast<long long>(qor.res.dsp),
                  static_cast<long long>(qor.res.bram18k));
    return line;
}

/** Golden lines by name from one tests/golden file. */
std::map<std::string, std::string>
readGolden(const std::string& path, Report& report)
{
    std::map<std::string, std::string> lines;
    std::ifstream in(path);
    if (!in.good()) {
        report.problem("cannot read golden file " + path);
        return lines;
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        if (!name.empty())
            lines[name] = line + "\n";
    }
    return lines;
}

/** Name of a pass's per-layer span ("transforms.pass.<name>"), interned
 * so the tracer can keep a stable pointer to it. */
const char*
passSpanName(const std::string& pass)
{
    static std::mutex mutex;
    static std::set<std::string> names;
    std::lock_guard<std::mutex> lock(mutex);
    return names.insert("transforms.pass." + pass).first->c_str();
}

size_t
countOps(ModuleOp module)
{
    size_t count = 0;
    module.op()->walk([&](Operation*) { ++count; });
    return count;
}

struct Zoo {
    Zoo(const RunConfig& c, Report& r) : config(c), report(r) {}

    const RunConfig& config;
    Report& report;
    std::vector<Program> programs;
    std::vector<ZooOp> ops;

    /** Enumerate programs and ops; builds every program once (the
     * ScaleHLS support probe). */
    void
    setUp()
    {
        programs.clear();
        ops.clear();
        for (const std::string& name : polybenchKernelNames())
            programs.push_back(
                {name, Program::kPolybench, 1, TargetDevice::zu3eg()});
        for (const std::string& name : dnnModelNames())
            programs.push_back({name, Program::kDnn, 1, TargetDevice::vu9pSlr()});
        for (int64_t batch : {1, 10})
            programs.push_back({"LeNet-b" + std::to_string(batch),
                                Program::kLeNet, batch, TargetDevice::pynqZ2()});

        const std::string golden_dir = config.root + "/tests/golden/";
        std::map<std::string, std::string> golden =
            readGolden(golden_dir + "qor_table7_polybench.golden", report);
        for (auto& entry :
             readGolden(golden_dir + "qor_table8_dnn.golden", report))
            golden.insert(entry);

        for (size_t p = 0; p < programs.size(); ++p) {
            OwnedModule probe = programs[p].build();
            for (Flow flow : {Flow::kHida, Flow::kScaleHls, Flow::kVitis}) {
                if (flow == Flow::kScaleHls && !scaleHlsSupports(probe.get()))
                    continue;
                ZooOp op;
                op.program = p;
                op.flow = flow;
                op.key = programs[p].name + "/" + flowName(flow);
                auto it = golden.find(programs[p].name);
                if (flow == Flow::kHida && it != golden.end())
                    op.golden = it->second;
                ops.push_back(op);
            }
        }
    }

    /** Run one op; spans are recorded when the tracer is on. */
    Output
    compileOp(const ZooOp& op, uint64_t trace_op) const
    {
        const Program& program = programs[op.program];
        Output out;
        SpanScope op_span("zoo.op", trace_op);
        OwnedModule module;
        {
            SpanScope span("frontend.build", trace_op);
            module = program.build();
        }
        CompileResult result;
        {
            SpanScope span("driver.compile", trace_op);
            const Clock::time_point start = Clock::now();
            result = compile(module.get(), op.flow, program.device);
            const Clock::time_point end = Clock::now();
            // compile() reports its pass-pipeline time; the rest of its
            // wall time is the cold estimate.
            const Clock::time_point split =
                plusSeconds(start, result.compileSeconds);
            Tracer::get().record("transforms.pipeline", trace_op, start,
                                 split);
            Tracer::get().record("estimator.cold", trace_op, split, end);
        }
        std::string code;
        {
            SpanScope span("emitter.emit", trace_op);
            code = emitHlsCpp(module.get());
        }
        out.qorLine = formatQorLine(program.name, result.qor);
        out.digest = hashCombine(fnv1a(out.qorLine), fnv1a(code));
        out.codeBytes = code.size();
        if (Tracer::get().enabled())
            out.irOps = countOps(module.get());
        return out;
    }

    /**
     * Per-pass timing: the compile() pipeline rebuilt from the public
     * create*Pass factories in compile()'s order, timed by
     * PassManager::timings(). Its QoR must equal compile()'s.
     */
    void
    passTimings(const ZooOp& op, const Output& compiled, uint64_t trace_op)
    {
        const Program& program = programs[op.program];
        const FlowOptions options = optionsFor(op.flow);
        OwnedModule module = program.build();
        registerAllDialects();
        PassManager pm(/*verify_each=*/true);
        if (options.enableDataflow)
            pm.addPass(createFuncDataflowConstructPass());
        if (options.enableTaskFusion)
            pm.addPass(createTaskFusionPass(options));
        pm.addPass(createLowerNnToAffinePass(options));
        if (options.enableDataflow)
            pm.addPass(createLowerToStructuralPass(options));
        if (options.enableMultiProducerElim)
            pm.addPass(createMultiProducerElimPass());
        if (options.enableBalancing)
            pm.addPass(createBalanceDataPathsPass(options));
        if (options.enableParallelization)
            pm.addPass(createParallelizePass(options));
        pm.addPass(createArrayPartitionPass(options));
        pm.addPass(createPipelineDirectivesPass());
        pm.addPass(createCreateInterfacesPass());
        {
            SpanScope span("transforms.pass_pipeline", trace_op);
            Clock::time_point at = Clock::now();
            pm.run(module.get());
            for (const auto& [name, seconds] : pm.timings()) {
                const Clock::time_point next = plusSeconds(at, seconds);
                Tracer::get().record(passSpanName(name), trace_op, at, next);
                at = next;
            }
        }
        QorEstimator estimator(program.device);
        const DesignQor qor = estimator.estimateFunc(topFunc(module.get()));
        if (formatQorLine(program.name, qor) != compiled.qorLine)
            report.problem("factory-assembled pipeline QoR differs from "
                           "compile() for " + op.key);
    }

    bool
    check(const ZooOp& op, const Output& out) const
    {
        if (!op.golden.empty() && out.qorLine != op.golden)
            return false;
        const uint64_t* pinned = findPinned(kZooDigests, op.key);
        return pinned != nullptr && *pinned == out.digest;
    }

    /** One block: every op kPassesPerBlock times, in a seeded order, on
     * @p threads threads. Returns the compile rate. @p outputs receives
     * one pass worth of outputs (slot i < ops.size() is op i). */
    double
    block(uint64_t round, unsigned threads, bool traced,
          std::vector<LatencySample>* latencies,
          std::vector<Output>* outputs,
          std::set<uint64_t>* trace_ops)
    {
        const size_t slots = kPassesPerBlock * ops.size();
        const std::vector<size_t> order =
            seededOrder(slots, config.seed, round);
        std::vector<Output> results(slots);
        std::vector<double> seconds(slots, 0.0);
        std::vector<uint64_t> ids(slots, 0);
        for (uint64_t& id : ids)
            id = Tracer::get().newOp();
        Tracer::get().enable(traced);
        std::atomic<size_t> next{0};
        auto work = [&]() {
            for (size_t i = next++; i < order.size(); i = next++) {
                const size_t slot = order[i];
                const Clock::time_point start = Clock::now();
                results[slot] = compileOp(ops[slot % ops.size()], ids[slot]);
                seconds[slot] = secondsBetween(start, Clock::now());
            }
        };
        const Clock::time_point start = Clock::now();
        if (threads == 1) {
            CpuPin pin;
            work();
        } else {
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < threads; ++t)
                pool.emplace_back(work);
            for (std::thread& t : pool)
                t.join();
        }
        const double wall = secondsBetween(start, Clock::now());
        if (traced)
            for (size_t i = 0; i < ops.size(); ++i)
                passTimings(ops[i], results[i], ids[i]);
        Tracer::get().enable(false);

        for (size_t slot = 0; slot < slots; ++slot) {
            report.countOp(check(ops[slot % ops.size()], results[slot]));
            if (latencies != nullptr)
                latencies->push_back(
                    {round, slot % ops.size(), seconds[slot]});
        }
        if (trace_ops != nullptr)
            trace_ops->insert(ids.begin(), ids.end());
        if (outputs != nullptr) {
            results.resize(ops.size());
            *outputs = std::move(results);
        }
        return static_cast<double>(slots) / wall;
    }

    /**
     * src/interp oracle: LeNet b1 lowered by each flow must compute the
     * tensor graph's output on a seeded input. The interpreter runs nodes
     * sequentially, which by its contract matches dataflow execution only
     * when every buffer is fully written before it is read. HIDA's tiled
     * lowering streams per-tile buffers between tasks that each loop over
     * all tiles, which is outside that contract, so HIDA is checked with
     * tiling off; the tiled result is reported, not checked.
     */
    void
    checkInterpreter()
    {
        OwnedModule reference = buildLeNet(1);
        FuncOp ref_func = topFunc(reference.get());
        Value* ref_output = nullptr;
        ref_func.op()->walk([&](Operation* op) {
            if (op->name() == "nn.linear")
                ref_output = op->result(0);
        });
        const std::vector<double> input = weightData(
            ref_func.argument(0)->type().numElements(),
            static_cast<int64_t>(config.seed % 1000003));
        const std::vector<double> expected =
            executeNnGraph(ref_func, input, ref_output);
        auto matches = [&](const FlowOptions& options) {
            OwnedModule module = buildLeNet(1);
            compile(module.get(), options, TargetDevice::pynqZ2());
            const std::vector<double> actual = loweredNetworkOutput(
                topFunc(module.get()), input,
                static_cast<int64_t>(expected.size()));
            bool same = actual.size() == expected.size();
            for (size_t i = 0; same && i < expected.size(); ++i)
                same = std::fabs(actual[i] - expected[i]) <=
                       1e-6 * std::max(1.0, std::fabs(expected[i]));
            return same;
        };
        for (Flow flow : {Flow::kHida, Flow::kScaleHls, Flow::kVitis}) {
            FlowOptions options = optionsFor(flow);
            options.enableTiling = false;
            if (!matches(options))
                report.problem("lowered LeNet-b1 (" + flowName(flow) +
                               ", untiled) differs from the tensor-graph "
                               "oracle");
        }
        report.notes.push_back(
            std::string("interp oracle, HIDA tiled LeNet-b1 (not checked): ") +
            (matches(optionsFor(Flow::kHida)) ? "matches" : "differs"));
    }
};

} // namespace

/** Print this table's entries for references.cc (--print-references). */
void
printZooReferences(const RunConfig& config)
{
    Report report;
    Zoo zoo{config, report};
    zoo.setUp();
    for (const ZooOp& op : zoo.ops) {
        Output out = zoo.compileOp(op, 0);
        std::printf("    {\"%s\", 0x%016llxULL},\n", op.key.c_str(),
                    static_cast<unsigned long long>(out.digest));
    }
}

void
runCompileZoo(const RunConfig& config, Report& report)
{
    Zoo zoo{config, report};
    EndToEnd e2e;
    e2e.latencyAt1t = true;

    // Set-up: enumerate and build the zoo, read the golden tables, then
    // untimed warm-up ops: the largest program, ResNet-18, under each flow.
    auto set_up = [&](Clock::time_point start) {
        CpuPin pin;
        zoo.setUp();
        for (const ZooOp& op : zoo.ops) {
            if (zoo.programs[op.program].name != "ResNet-18")
                continue;
            if (!zoo.check(op, zoo.compileOp(op, 0)))
                report.problem("warm-up compile differs from its reference");
        }
        return secondsBetween(start, Clock::now());
    };
    e2e.setups.push_back(measure([&] { return set_up(processStart()); }));

    for (const Clock::time_point ramp = plusSeconds(Clock::now(), kRampSeconds);
         Clock::now() < ramp;)
        zoo.block(UINT64_MAX, kLoadThreads, false, nullptr, nullptr, nullptr);
    const Clock::time_point deadline =
        plusSeconds(Clock::now(), config.seconds);
    if (!config.trace) {
        for (uint64_t round = 0; Clock::now() < deadline; ++round) {
            e2e.blocks1t.push_back(measure([&] {
                return zoo.block(round, 1, false, &e2e.latencies, nullptr,
                                 nullptr);
            }));
            e2e.blocks.push_back(measure([&] {
                return zoo.block(round, kLoadThreads, false, nullptr, nullptr,
                                 nullptr);
            }));
            e2e.setups.push_back(measure([&] { return set_up(Clock::now()); }));
        }
        zoo.checkInterpreter();
        reportEndToEnd(e2e, report);
        return;
    }

    // Traced run: untraced one-thread blocks, each of the first
    // kTracedRounds followed by a traced one that also times each pass of
    // a factory-assembled pipeline.
    std::vector<double> plain, traced;
    std::set<uint64_t> trace_ops;
    std::vector<Output> outputs;
    size_t traced_blocks = 0;
    for (uint64_t round = 0; Clock::now() < deadline; ++round) {
        plain.push_back(zoo.block(round, 1, false, nullptr, nullptr, nullptr));
        if (round < kTracedRounds) {
            traced.push_back(
                zoo.block(round, 1, true, nullptr, &outputs, &trace_ops));
            ++traced_blocks;
        }
    }
    zoo.checkInterpreter();

    std::map<std::string, double> totals =
        secondsByName(Tracer::get().collect());
    // Seconds per op; the pass pipeline runs once per op per block.
    auto per = [&](const std::string& name, size_t passes) {
        return totals[name] / static_cast<double>(passes * zoo.ops.size() *
                                                  traced_blocks);
    };
    std::map<std::string, double> values;
    values["frontend.build_s"] = per("frontend.build", kPassesPerBlock);
    values["transforms.pipeline_s"] =
        per("transforms.pipeline", kPassesPerBlock);
    values["estimator.cold_s"] = per("estimator.cold", kPassesPerBlock);
    values["emitter.emit_s"] = per("emitter.emit", kPassesPerBlock);
    for (const auto& [name, unit] : perLayerMetrics())
        if (name.rfind("transforms.pass.", 0) == 0)
            values[name] = per(name.substr(0, name.size() - 2), 1);
    // Exact output-size guards over one pass (every op once).
    double bytes = 0.0, ir_ops = 0.0;
    for (const Output& out : outputs) {
        bytes += static_cast<double>(out.codeBytes);
        ir_ops += static_cast<double>(out.irOps);
    }
    values["emitter.bytes"] = bytes;
    values["transforms.ir_ops"] = ir_ops;
    values["trace.overhead_frac"] = tracingOverhead(plain, traced);
    reportPerLayer(values, report);
}

} // namespace perfbench
