#include "replay.hh"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/absint.hh"
#include "graph/analyze.hh"
#include "graph/bytecode.hh"
#include "graph/lower.hh"
#include "graph/optimize.hh"
#include "graph/resources.hh"
#include "lang/lex.hh"
#include "lang/parse.hh"
#include "lang/sema.hh"
#include "passes/passes.hh"

namespace perfbench
{

using namespace revet;

namespace
{

std::string
rewriteList(const graph::GraphOptReport &rep)
{
    std::ostringstream oss;
    for (const auto &[name, count] : rep.rewrites)
        oss << name << '=' << count << ';';
    return oss.str();
}

/** Times every run() of the wrapped pass as a child span of the
 * runPasses() span, and counts runs and runs that rewrote. */
class TimedPass : public graph::GraphPass
{
  public:
    TimedPass(std::unique_ptr<graph::GraphPass> inner, Tracer &tracer,
              int parent, int64_t request, ReplayResult &result)
        : inner_(std::move(inner)), span_("graph.opt.rewrite." +
                                          inner_->name()),
          tracer_(tracer), parent_(parent), request_(request),
          result_(result)
    {}

    std::string name() const override { return inner_->name(); }

    int
    run(graph::Dfg &dfg, const graph::GraphPassOptions &opts) override
    {
        const int id = tracer_.begin(span_, parent_, request_);
        const int applied = inner_->run(dfg, opts);
        tracer_.end(id);
        ++result_.passRuns;
        if (applied)
            ++result_.usefulRuns;
        return applied;
    }

  private:
    std::unique_ptr<graph::GraphPass> inner_;
    std::string span_;
    Tracer &tracer_;
    int parent_;
    int64_t request_;
    ReplayResult &result_;
};

} // namespace

bool
ArtifactShape::operator==(const ArtifactShape &o) const
{
    return nodes == o.nodes && links == o.links && insts == o.insts &&
           optIterations == o.optIterations &&
           validatedPasses == o.validatedPasses && rewrites == o.rewrites;
}

std::string
ArtifactShape::str() const
{
    std::ostringstream oss;
    oss << "nodes=" << nodes << " links=" << links << " insts=" << insts
        << " iterations=" << optIterations
        << " validated=" << validatedPasses << " rewrites{" << rewrites
        << '}';
    return oss.str();
}

ArtifactShape
shapeOf(const CompiledArtifact &art)
{
    ArtifactShape s;
    s.nodes = art.dfg().nodes.size();
    s.links = art.dfg().links.size();
    s.insts = art.bytecode().insts.size();
    s.optIterations = art.optReport().iterations;
    s.validatedPasses = art.optReport().validatedPasses;
    s.rewrites = rewriteList(art.optReport());
    return s;
}

ReplayResult
replayBuild(const std::string &source, const CompileOptions &opts,
            Tracer &tracer, int64_t request)
{
    ReplayResult out;
    // Runs one build() step as a span and adds it to the coverage sum.
    auto step = [&](const char *name, auto &&fn) {
        const int id = tracer.begin(name, -1, request);
        fn(id);
        out.layersMs += tracer.end(id);
    };
    auto probe = [&](const char *name, auto &&fn) {
        const int id = tracer.begin(name, -1, request);
        fn();
        tracer.end(id);
    };

    step("core.cache_key", [&](int) {
        (void)canonicalOptions(opts);
        (void)artifactFingerprint(source, opts);
    });

    // build() parses and analyzes twice: the reference HIR, then the
    // HIR the pass pipeline rewrites.
    lang::Program hir;
    for (int copy = 0; copy < 2; ++copy) {
        lang::Program prog;
        step("lang.parse", [&](int) { prog = lang::parse(source); });
        // After parse(), so the probe never runs on colder caches than
        // the lexing inside parse() did.
        probe("lang.lex", [&] { (void)lang::lex(source); });
        step("lang.sema", [&](int) { lang::analyze(prog); });
        if (copy == 1)
            hir = std::move(prog);
    }

    // passes::runPipeline(), one pass per span.
    if (opts.passes.lowerAdapters) {
        step("passes.lower_adapters",
             [&](int) { passes::lowerAdapters(hir); });
    }
    if (opts.passes.eliminateHierarchy) {
        step("passes.eliminate_hierarchy",
             [&](int) { passes::eliminateHierarchy(hir); });
    }
    if (opts.passes.ifToSelect) {
        step("passes.if_to_select", [&](int) { passes::ifToSelect(hir); });
    }

    graph::Dfg dfg;
    step("graph.lower", [&](int) { dfg = graph::lower(hir); });
    out.nodesLowered = dfg.nodes.size();

    // graph::optimize(): the default pass list under runPasses(). The
    // span's self time is translation validation, verification and the
    // fixpoint loop — everything but the rewrites themselves.
    graph::GraphOptReport opt_report;
    step("graph.opt", [&](int id) {
        if (!opts.graphOpt.enable) {
            opt_report = graph::optimize(dfg, opts.graphOpt);
            return;
        }
        std::vector<std::unique_ptr<graph::GraphPass>> passes;
        for (auto &pass : graph::makeDefaultPasses(opts.graphOpt)) {
            passes.push_back(std::make_unique<TimedPass>(
                std::move(pass), tracer, id, request, out));
        }
        opt_report = graph::runPasses(dfg, passes, opts.graphOpt);
    });

    graph::BytecodeProgram bytecode;
    step("graph.bytecode",
         [&](int) { bytecode = graph::BytecodeProgram::compile(dfg); });

    step("graph.resources", [&](int) {
        graph::ResourceOptions ro;
        ro.toggles = opts.graph;
        (void)graph::analyzeResources(dfg, opts.graphOpt.machine, ro);
    });
    step("graph.analyze", [&](int) {
        (void)graph::analyzeGraph(dfg, opts.graphOpt.machine);
    });
    probe("graph.absint", [&] { (void)graph::analyzeValues(dfg); });

    out.shape.nodes = dfg.nodes.size();
    out.shape.links = dfg.links.size();
    out.shape.insts = bytecode.insts.size();
    out.shape.optIterations = opt_report.iterations;
    out.shape.validatedPasses = opt_report.validatedPasses;
    out.shape.rewrites = rewriteList(opt_report);
    return out;
}

} // namespace perfbench
