/**
 * @file
 * Traced replay of CompiledArtifact::build().
 *
 * Calls the public steps build() calls, in build()'s order — both
 * parseAndAnalyze() runs (split into lex/parse/analyze), the HIR pass
 * pipeline pass by pass, lowering, the default DFG pass list under
 * runPasses() with a timing decorator around every pass, bytecode
 * compile, resource analysis and static analysis — with one span per
 * step. Two probes that build() does not run are timed beside the
 * steps and kept out of the coverage sum: a standalone lex() (parse()
 * lexes internally, so the probe is the lexer's share of each parse
 * span) and one analyzeValues() on the final graph (the absint
 * fixpoint that analyzeGraph() runs inside its own span).
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/revet.hh"
#include "trace.hh"

namespace perfbench
{

/** Sizes that identify a build's output; a replay must match build(). */
struct ArtifactShape
{
    size_t nodes = 0;
    size_t links = 0;
    size_t insts = 0;
    int optIterations = 0;
    int validatedPasses = 0;
    std::string rewrites; ///< "pass=count;..." in pipeline order

    bool operator==(const ArtifactShape &o) const;
    bool operator!=(const ArtifactShape &o) const { return !(*this == o); }
    std::string str() const;
};

ArtifactShape shapeOf(const revet::CompiledArtifact &art);

struct ReplayResult
{
    ArtifactShape shape;
    size_t nodesLowered = 0;
    int passRuns = 0;    ///< GraphPass::run calls
    int usefulRuns = 0;  ///< runs that rewrote something
    double layersMs = 0; ///< sum of the build() step spans (no probes)
};

/** Replay build(@p source, @p opts) under @p tracer; every span of the
 * replay carries @p request. */
ReplayResult replayBuild(const std::string &source,
                         const revet::CompileOptions &opts, Tracer &tracer,
                         int64_t request);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
