#include "core/revet.hh"

#include <ios>
#include <sstream>

#include "lang/parse.hh"

namespace revet
{

namespace
{

void
put(std::ostringstream &oss, const char *key, bool v)
{
    oss << key << '=' << (v ? 1 : 0) << ';';
}

void
put(std::ostringstream &oss, const char *key, int v)
{
    oss << key << '=' << v << ';';
}

void
put(std::ostringstream &oss, const char *key, double v)
{
    // Hexfloat: exact round trip, no locale/precision ambiguity.
    oss << key << '=' << std::hexfloat << v << std::defaultfloat << ';';
}

/** artifactFingerprint() of @p source under the options whose
 * canonicalOptions() is @p key: callers that already hold the key
 * serialize the options once. */
uint64_t
fingerprintOf(const std::string &source, const std::string &key)
{
    uint64_t h = 1469598103934665603ull; // FNV offset basis
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull; // FNV prime
        }
    };
    mix(source);
    h ^= 0xffu; // domain separator between the two strings
    h *= 1099511628211ull;
    mix(key);
    return h;
}

} // namespace

std::string
canonicalOptions(const CompileOptions &opts)
{
    std::ostringstream oss;
    oss << "passes{";
    put(oss, "lowerAdapters", opts.passes.lowerAdapters);
    put(oss, "eliminateHierarchy", opts.passes.eliminateHierarchy);
    put(oss, "ifToSelect", opts.passes.ifToSelect);
    oss << "}graphOpt{";
    put(oss, "enable", opts.graphOpt.enable);
    put(oss, "replicateBufferize", opts.graphOpt.replicateBufferize);
    put(oss, "subwordPack", opts.graphOpt.subwordPack);
    const sim::MachineConfig &m = opts.graphOpt.machine;
    oss << "machine{";
    put(oss, "numCU", m.numCU);
    put(oss, "numMU", m.numMU);
    put(oss, "numAG", m.numAG);
    put(oss, "lanes", m.lanes);
    put(oss, "stages", m.stages);
    put(oss, "vecBuffers", m.vecBuffers);
    put(oss, "scalBuffers", m.scalBuffers);
    put(oss, "vecBufferWords", m.vecBufferWords);
    put(oss, "scalBufferWords", m.scalBufferWords);
    put(oss, "vecOutputs", m.vecOutputs);
    put(oss, "scalOutputs", m.scalOutputs);
    put(oss, "muBanks", m.muBanks);
    put(oss, "muKiB", m.muKiB);
    put(oss, "clockGHz", m.clockGHz);
    put(oss, "areaMM2", m.areaMM2);
    put(oss, "dramPeakGBs", m.dramPeakGBs);
    put(oss, "dramEfficiency", m.dramEfficiency);
    put(oss, "burstBytes", m.burstBytes);
    put(oss, "dramBanks", m.dramBanks);
    put(oss, "tRCns", m.tRCns);
    put(oss, "targetUtilization", m.targetUtilization);
    oss << "}}graph{";
    put(oss, "hoistAllocators", opts.graph.hoistAllocators);
    oss << '}';
    return oss.str();
}

uint64_t
artifactFingerprint(const std::string &source, const CompileOptions &opts)
{
    return fingerprintOf(source, canonicalOptions(opts));
}

std::shared_ptr<const CompiledArtifact>
CompiledArtifact::build(const std::string &source,
                        const CompileOptions &opts)
{
    // shared_ptr<CompiledArtifact> first (the ctor is private, so no
    // make_shared), const-qualified only once fully built.
    std::shared_ptr<CompiledArtifact> out(new CompiledArtifact());
    out->source_ = source;
    out->cache_key_ = canonicalOptions(opts);
    out->fingerprint_ = fingerprintOf(source, out->cache_key_);
    out->opts_ = opts;
    out->ref_ = lang::parseAndAnalyze(source);
    out->hir_ = lang::parseAndAnalyze(source);
    passes::runPipeline(out->hir_, opts.passes);
    out->dfg_ = graph::lower(out->hir_);
    out->opt_report_ = graph::optimize(out->dfg_, opts.graphOpt);
    out->bytecode_ = graph::BytecodeProgram::compile(out->dfg_);
    graph::ResourceOptions ro;
    ro.toggles = opts.graph;
    out->resources_ =
        graph::analyzeResources(out->dfg_, opts.graphOpt.machine, ro);
    out->analysis_ = graph::analyzeGraph(out->dfg_, opts.graphOpt.machine);
    return out;
}

std::unique_ptr<graph::ExecutionContext>
CompiledArtifact::makeContext() const
{
    return std::make_unique<graph::ExecutionContext>(bytecode_);
}

interp::RunStats
CompiledArtifact::interpret(lang::DramImage &dram,
                            const std::vector<int32_t> &args) const
{
    return interp::run(ref_, dram, args);
}

graph::ExecStats
CompiledArtifact::execute(lang::DramImage &dram,
                          const std::vector<int32_t> &args,
                          dataflow::Engine::Policy policy,
                          int num_threads) const
{
    graph::ExecutionContext ctx(bytecode_);
    return ctx.run(dram, args, policy, num_threads);
}

ArtifactCache &
ArtifactCache::global()
{
    static ArtifactCache cache;
    return cache;
}

std::shared_ptr<const CompiledArtifact>
ArtifactCache::get(const std::string &source, const CompileOptions &opts)
{
    const std::string key = canonicalOptions(opts);
    const uint64_t fp = fingerprintOf(source, key);
    std::lock_guard<std::mutex> guard(mu_);
    auto &bucket = buckets_[fp];
    for (const auto &art : bucket) {
        if (art->source() == source && art->cacheKey() == key) {
            ++stats_.hits;
            return art;
        }
    }
    ++stats_.misses;
    // Compile under the lock: concurrent first requests deduplicate
    // into one build (see the class comment). A throwing compile
    // caches nothing and leaves only the miss counted.
    auto art = CompiledArtifact::build(source, opts);
    ++stats_.compiles;
    bucket.push_back(art);
    ++stats_.entries;
    return art;
}

ArtifactCache::Stats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return stats_;
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> guard(mu_);
    buckets_.clear();
    stats_ = Stats{};
}

} // namespace revet
