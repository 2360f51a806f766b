#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/apps.hh"
#include "core/serve.hh"
#include "graph/optimize.hh"
#include "replay.hh"
#include "trace.hh"

namespace perfbench
{

using namespace revet;

namespace
{

/** The options serving and the evaluation harness compile with. */
const CompileOptions kOpts{};

/** Set-up passes per run (one before the loop, the rest spread over
 * it); setup_s is their median. */
constexpr int kSetupReps = 5;
/** compile_corpus: scale of the one post-clock run per app. */
constexpr int kVerifyScale = 4;
/** serve workloads, traced: build + replay rounds over their apps. */
constexpr int kReplayRounds = 3;
/** Failed operations whose message is printed. */
constexpr int kMaxErrorLines = 5;

struct AppPlan
{
    std::string app;
    /** Request scales; every round sends each equally often. */
    std::vector<int> scales;
};

struct Spec
{
    std::string name;
    std::vector<AppPlan> plan;
    int batch = 1; ///< requests per serveBatch call
    serve::ServeOptions serve;
};

Spec
specFor(const std::string &name)
{
    Spec s;
    s.name = name;
    s.serve.keepDram = true;
    if (name == "compile_corpus") {
        for (const apps::App &app : apps::allApps())
            s.plan.push_back({app.name, {kVerifyScale}});
        s.serve.workers = 1;
        s.serve.policy = dataflow::Engine::Policy::worklist;
    } else if (name == "serve_warm") {
        // Worklist quanta per request differ ~18x across apps at one
        // scale; these scales put every app's requests at about 36k,
        // 45k and 54k quanta, so latency percentiles fall inside one
        // smooth distribution instead of on the gaps between apps.
        s.plan = {{"isipv4", {57, 72, 86}},  {"ip2int", {61, 76, 92}},
                  {"murmur3", {66, 83, 100}}, {"hash-table", {29, 36, 44}},
                  {"search", {4, 5, 6}},      {"huff-dec", {1, 2, 3}},
                  {"huff-enc", {4, 5, 6}},    {"kD-tree", {10, 13, 16}}};
        // One serving worker: with two busy threads on a 2-vCPU host,
        // outside load moved run-to-run latency by 30-40%, one thread
        // by under 10%. Three requests per batch give three queue
        // positions, so the median sits inside the middle one.
        s.batch = 3;
        s.serve.workers = 1;
        s.serve.policy = dataflow::Engine::Policy::worklist;
    } else if (name == "exec_parallel") {
        // The four largest graphs, at scales where one 2-thread request
        // runs for tens of milliseconds.
        s.plan = {{"search", {12, 16, 20}},
                  {"huff-dec", {8, 10, 12}},
                  {"huff-enc", {12, 16, 20}},
                  {"kD-tree", {48, 64, 80}}};
        s.serve.workers = 1;
        s.serve.policy = dataflow::Engine::Policy::parallel;
        s.serve.engineThreads = 2;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return s;
}

/** One (app, scale) input, generated and checked off the clock. */
struct Case
{
    const apps::App *app = nullptr;
    int scale = 0;
    std::vector<int32_t> args;
    std::unique_ptr<lang::DramImage> input;
    /** DRAM after CompiledArtifact::interpret (the AST interpreter). */
    std::unique_ptr<lang::DramImage> golden;
    uint64_t bytes = 0; ///< App::accountedBytes(scale)
    /** Worklist quanta of the first run; later runs must repeat it. */
    uint64_t quanta = 0;
};

/** One serveBatch call: requests for one app. */
struct Batch
{
    size_t app = 0;
    std::vector<Case *> cases;
};

/** Serving outcomes summed over the batches of one kind (traced or
 * untraced). */
struct ServeTally
{
    std::vector<double> latency, queue, exec;
    double wallMs = 0;
    uint64_t bytes = 0;
    uint64_t contextsCreated = 0, contextsReused = 0;
    uint64_t quanta = 0, tokens = 0, steps = 0, idleSteps = 0;
    uint64_t wakeups = 0, verifyPasses = 0, steals = 0;
    uint64_t dramElems = 0, sramAccesses = 0, arenaReused = 0;
    uint64_t engineRuns = 0;

    size_t requests() const { return latency.size(); }
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks.
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

class Run
{
  public:
    explicit Run(const RunConfig &cfg)
        : cfg_(cfg), spec_(specFor(cfg.workload)), rng_(cfg.seed)
    {
        for (const AppPlan &p : spec_.plan)
            apps_.push_back(&apps::findApp(p.app));
        setupCompileMs_.resize(apps_.size());
        buildMsByApp_.resize(apps_.size());
    }

    RunReport
    execute()
    {
        setUp();
        makeCases();
        if (spec_.name == "compile_corpus") {
            compileLoop();
            verifyLastBuilds();
        } else {
            if (cfg_.trace) {
                for (int r = 0; r < kReplayRounds; ++r)
                    compileRound(true, nullptr);
            }
            serveLoop();
        }
        factsOut();
        if (cfg_.trace)
            traceMetrics();
        else
            endToEndMetrics();
        if (!cfg_.traceOut.empty() && !tracer_.write(cfg_.traceOut))
            check(false, "could not write spans to " + cfg_.traceOut);
        return std::move(rep_);
    }

  private:
    // ---- bookkeeping --------------------------------------------------

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            rep_.correct = false;
            rep_.lines.push_back("CHECK FAILED: " + what);
        }
    }

    void
    countOp(const std::string &error)
    {
        ++rep_.attempted;
        if (error.empty())
            return;
        ++rep_.failed;
        if (++errorLines_ <= kMaxErrorLines)
            rep_.lines.push_back("FAILED: " + error);
    }

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        rep_.metrics.push_back({name, value, unit});
    }

    /** fn(), inside a span named @p name when @p traced. */
    template <typename Fn>
    auto
    span(bool traced, const char *name, Fn &&fn)
    {
        const int id = traced ? tracer_.begin(name) : -1;
        auto result = fn();
        if (traced)
            tracer_.end(id);
        return result;
    }

    size_t
    drawIndex(size_t n)
    {
        return static_cast<size_t>(rng_() % n);
    }

    /** 0..n-1 in seeded order. */
    std::vector<size_t>
    shuffled(size_t n)
    {
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        for (size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[drawIndex(i)]);
        return order;
    }

    // ---- set-up -------------------------------------------------------

    /** Cold cache, then one compile (cache miss) and one context per
     * app: what a server pays before its first request. */
    std::vector<std::shared_ptr<const CompiledArtifact>>
    setUpPass(ArtifactCache &cache)
    {
        std::vector<std::shared_ptr<const CompiledArtifact>> arts;
        cache.clear();
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < apps_.size(); ++i) {
            const Clock::time_point tg = Clock::now();
            arts.push_back(span(cfg_.trace, "setup.cache_get", [&] {
                return cache.get(apps_[i]->source, kOpts);
            }));
            setupCompileMs_[i].push_back(msSince(tg));
            span(cfg_.trace, "core.context_make",
                 [&] { return arts.back()->makeContext(); });
        }
        setupS_.push_back(msSince(t0) / 1000.0);
        return arts;
    }

    /** The first set-up pass, on the process-wide cache the run serves
     * from. */
    void
    setUp()
    {
        arts_ = setUpPass(ArtifactCache::global());
        for (size_t i = 0; i < apps_.size(); ++i) {
            shapes_.push_back(shapeOf(*arts_[i]));
            // Warm lookups must hit and return the compiled artifact.
            auto again = getArtifact(i, cfg_.trace);
            check(again == arts_[i],
                  "cache did not return the cached artifact for " +
                      apps_[i]->name);
        }
    }

    /** The other set-up passes run between rounds of the measured loop,
     * at even steps of its time and on a cache of their own, so that
     * setup_s samples the same minutes as the rest of the run. @p
     * loop_ms is the loop's time so far; returns the time taken, which
     * the loop does not count. @p finish runs the passes still due. */
    double
    setUpBetweenRounds(double loop_ms, bool finish = false)
    {
        const Clock::time_point t0 = Clock::now();
        while (setupS_.size() < static_cast<size_t>(kSetupReps) &&
               (finish || loop_ms >= cfg_.seconds * 1000.0 *
                                         static_cast<double>(setupS_.size()) /
                                         kSetupReps)) {
            ArtifactCache cache;
            setUpPass(cache);
        }
        return msSince(t0);
    }

    std::shared_ptr<const CompiledArtifact>
    getArtifact(size_t app, bool traced)
    {
        return span(traced, "core.cache_get", [&] {
            return ArtifactCache::global().get(apps_[app]->source, kOpts);
        });
    }

    /** Inputs and interpreter outputs for every (app, scale) the
     * workload can draw. */
    void
    makeCases()
    {
        cases_.resize(apps_.size());
        for (size_t i = 0; i < apps_.size(); ++i) {
            for (int scale : spec_.plan[i].scales) {
                Case c;
                c.app = apps_[i];
                c.scale = scale;
                c.input = std::make_unique<lang::DramImage>(arts_[i]->hir());
                c.args = c.app->generate(*c.input, scale);
                c.golden = std::make_unique<lang::DramImage>(*c.input);
                arts_[i]->interpret(*c.golden, c.args);
                const std::string err = c.app->verify(*c.golden, scale);
                check(err.empty(), "interpreter output of " + c.app->name +
                                       " at scale " +
                                       std::to_string(scale) +
                                       " fails the app's golden check: " +
                                       err);
                c.bytes = c.app->accountedBytes(scale);
                cases_[i].push_back(std::move(c));
            }
        }
    }

    // ---- compile ------------------------------------------------------

    void
    replayOne(size_t app)
    {
        const Clock::time_point t0 = Clock::now();
        ReplayResult res = replayBuild(apps_[app]->source, kOpts, tracer_,
                                       nextRequest_++);
        replayWallMs_ += msSince(t0);
        replayLayersMs_ += res.layersMs;
        ++replays_;
        passRuns_[app] = res.passRuns;
        usefulRuns_[app] = res.usefulRuns;
        nodesLowered_[app] = res.nodesLowered;
        const bool same = res.shape == shapes_[app];
        check(same, "replay of " + apps_[app]->name +
                        " differs from build(): replay " +
                        res.shape.str() + " vs build " +
                        shapes_[app].str());
        countOp(same ? "" : "replay mismatch for " + apps_[app]->name);
    }

    /** One seeded round: a cold build() of every app (timed), with a
     * traced replay beside each when @p replay is set (seeded order
     * within the pair, so neither side always runs on a warmer cache).
     * @p last receives the built artifacts. */
    void
    compileRound(bool replay,
                 std::vector<std::shared_ptr<const CompiledArtifact>> *last)
    {
        for (size_t app : shuffled(apps_.size())) {
            const bool replay_first = replay && (rng_() & 1);
            if (replay_first)
                replayOne(app);

            std::string error;
            const Clock::time_point t0 = Clock::now();
            std::shared_ptr<const CompiledArtifact> art;
            try {
                art = CompiledArtifact::build(apps_[app]->source, kOpts);
            } catch (const std::exception &e) {
                error = apps_[app]->name + ": build threw: " + e.what();
            }
            const double ms = msSince(t0);
            if (art) {
                const ArtifactShape shape = shapeOf(*art);
                if (shape != shapes_[app]) {
                    error = apps_[app]->name + ": build drifted: " +
                            shape.str() + " vs " + shapes_[app].str();
                }
                if (last)
                    (*last)[app] = std::move(art);
            }
            countOp(error);
            if (replay)
                pairedBuildMs_ += ms;
            else
                buildMsByApp_[app].push_back(ms);

            if (replay && !replay_first)
                replayOne(app);
        }
    }

    void
    compileLoop()
    {
        last_.resize(apps_.size());
        const Clock::time_point t0 = Clock::now();
        double paused_ms = 0;
        // Whole rounds only: every app is built equally often.
        while (msSince(t0) - paused_ms < cfg_.seconds * 1000.0) {
            compileRound(cfg_.trace, &last_);
            paused_ms += setUpBetweenRounds(msSince(t0) - paused_ms);
        }
        setUpBetweenRounds(0, true);
    }

    /** Run the last build of every app once (off the clock) and hold
     * its output to the app's golden check and the interpreter. */
    void
    verifyLastBuilds()
    {
        for (size_t i = 0; i < apps_.size(); ++i) {
            if (!last_[i])
                continue; // its build failed and was counted
            Case &c = cases_[i][0];
            std::vector<serve::Request> reqs(1);
            reqs[0].args = c.args;
            reqs[0].prepare = [&c](lang::DramImage &d) { d = *c.input; };
            serveBatchOf(last_[i], reqs, {&c}, cfg_.trace);
        }
    }

    // ---- serve --------------------------------------------------------

    static std::string
    checkResult(serve::RequestResult &res, Case &c, bool serial)
    {
        const std::string what =
            c.app->name + " scale " + std::to_string(c.scale) + ": ";
        if (!res.ok)
            return what + "threw: " + res.error;
        if (!res.stats.drained)
            return what + "network did not drain";
        if (res.stats.sramParkedEnd != 0)
            return what + "park slots still occupied at the end";
        if (!res.dram)
            return what + "no DRAM image kept";
        lang::DramImage &dram = *res.dram;
        const std::string err = c.app->verify(dram, c.scale);
        if (!err.empty())
            return what + "golden check: " + err;
        for (int r = 0; r < dram.dramCount(); ++r) {
            if (dram.bytes(r) != c.golden->bytes(r)) {
                return what + "DRAM region '" + dram.name(r) +
                       "' differs from the interpreter";
            }
        }
        if (serial) {
            if (c.quanta == 0)
                c.quanta = res.stats.schedQuanta;
            else if (c.quanta != res.stats.schedQuanta)
                return what + "worklist quanta drifted: " +
                       std::to_string(res.stats.schedQuanta) + " vs " +
                       std::to_string(c.quanta);
        }
        return "";
    }

    /** serveBatch over @p art; results are checked and tallied. */
    void
    serveBatchOf(const std::shared_ptr<const CompiledArtifact> &art,
                 const std::vector<serve::Request> &reqs,
                 const std::vector<Case *> &which, bool traced)
    {
        ++batches_;
        ServeTally &t = traced ? traced_ : untraced_;
        const Clock::time_point t0 = Clock::now();
        const int batch_span = traced ? tracer_.begin("serve.batch") : -1;
        serve::BatchReport rep = serve::serveBatch(art, reqs, spec_.serve);
        if (traced)
            tracer_.end(batch_span);
        t.wallMs += msSince(t0);

        const bool serial =
            spec_.serve.policy != dataflow::Engine::Policy::parallel;
        for (size_t k = 0; k < rep.results.size(); ++k) {
            serve::RequestResult &res = rep.results[k];
            const int64_t request = nextRequest_++;
            t.latency.push_back(res.queueMs + res.execMs);
            t.queue.push_back(res.queueMs);
            t.exec.push_back(res.execMs);
            if (traced) {
                const double q0 = tracer_.spans()[batch_span].startMs;
                const double q1 = q0 + res.queueMs;
                tracer_.add("serve.queue", q0, q1, batch_span, request);
                tracer_.add("serve.exec", q1, q1 + res.execMs, batch_span,
                            request);
            }
            const std::string err = checkResult(res, *which[k], serial);
            countOp(err);
            if (err.empty())
                t.bytes += which[k]->bytes;
            const graph::ExecStats &s = res.stats;
            t.quanta += s.schedQuanta;
            for (uint64_t n : s.linkTokens)
                t.tokens += n;
            t.steps += s.schedSteps;
            t.idleSteps += s.schedIdleSteps;
            t.wakeups += s.schedWakeups;
            t.verifyPasses += s.schedVerifyPasses;
            t.steals += s.schedSteals;
            t.dramElems += s.dramReadElems + s.dramWriteElems;
            t.sramAccesses += s.sramAccesses;
            t.arenaReused += s.sramArenaReused;
            ++t.engineRuns;
        }
        t.contextsCreated += rep.pool.created;
        t.contextsReused += rep.pool.reused;
    }

    /** Closed loop: the next one-app batch goes out when the previous
     * one is back. Whole rounds only, and every round sends each
     * (app, scale) input equally often, so the mix is the same on every
     * seed; the seed draws the order of batches and of the requests in
     * them. */
    void
    serveLoop()
    {
        const Clock::time_point t0 = Clock::now();
        double paused_ms = 0;
        while (msSince(t0) - paused_ms < cfg_.seconds * 1000.0) {
            std::vector<Batch> round;
            for (size_t app = 0; app < apps_.size(); ++app) {
                const size_t n_cases = cases_[app].size();
                const size_t batch = static_cast<size_t>(spec_.batch);
                const size_t per_app = std::lcm(batch, n_cases);
                const std::vector<size_t> order = shuffled(per_app);
                for (size_t b = 0; b < per_app; b += batch) {
                    Batch bt{app, {}};
                    for (size_t k = b; k < b + batch; ++k)
                        bt.cases.push_back(&cases_[app][order[k] % n_cases]);
                    round.push_back(std::move(bt));
                }
            }
            for (size_t r : shuffled(round.size()))
                serveOne(round[r]);
            paused_ms += setUpBetweenRounds(msSince(t0) - paused_ms);
        }
        setUpBetweenRounds(0, true);
    }

    void
    serveOne(const Batch &bt)
    {
        std::vector<serve::Request> reqs(bt.cases.size());
        for (size_t k = 0; k < reqs.size(); ++k) {
            Case &c = *bt.cases[k];
            reqs[k].args = c.args;
            reqs[k].prepare = [&c](lang::DramImage &d) { d = *c.input; };
        }
        // Traced runs alternate traced and untraced batches, so the
        // difference between the two is the tracing overhead.
        const bool traced = cfg_.trace && batches_ % 2 == 0;
        auto art = getArtifact(bt.app, traced);
        check(art == arts_[bt.app],
              "cache returned a different artifact for " +
                  apps_[bt.app]->name);
        serveBatchOf(art, reqs, bt.cases, traced);
    }

    // ---- results ------------------------------------------------------

    void
    factsOut()
    {
        for (size_t i = 0; i < apps_.size(); ++i) {
            rep_.facts.push_back({"shape:" + apps_[i]->name,
                                  shapes_[i].str()});
            if (cfg_.trace && replays_ > 0) {
                rep_.facts.push_back(
                    {"pass_runs:" + apps_[i]->name,
                     std::to_string(passRuns_[i]) + "/" +
                         std::to_string(usefulRuns_[i])});
            }
            for (const Case &c : cases_[i]) {
                if (c.quanta != 0) {
                    rep_.facts.push_back(
                        {"quanta:" + c.app->name + ":" +
                             std::to_string(c.scale),
                         std::to_string(c.quanta)});
                }
            }
        }
    }

    double
    dfgNodes() const
    {
        double n = 0;
        for (const ArtifactShape &s : shapes_)
            n += static_cast<double>(s.nodes);
        return n;
    }

    void
    endToEndMetrics()
    {
        metric("setup_s", percentile(setupS_, 50), "s");

        // Compile latency over the corpus: each app's mean cold build
        // (measured builds on compile_corpus, set-up cache misses on the
        // serving workloads), so every app weighs the same on any seed.
        // A mean, not a median: when the host's speed changes during a
        // run, it blends the phases instead of snapping to one of them.
        const bool corpus = spec_.name == "compile_corpus";
        std::vector<double> app_ms;
        size_t compiles = 0;
        for (const auto &ms : corpus ? buildMsByApp_ : setupCompileMs_) {
            app_ms.push_back(
                ratio(std::accumulate(ms.begin(), ms.end(), 0.0),
                      static_cast<double>(ms.size())));
            compiles += ms.size();
        }
        metric("compile_ms_p50", percentile(app_ms, 50), "ms");
        metric("compile_ms_p90", percentile(app_ms, 90), "ms");
        metric("dfg_nodes", dfgNodes(), "count");

        if (corpus) {
            // A request here is one cold build and its bytes are source
            // text. Rates are for one round of builds at each app's mean
            // time, so every app weighs the same, as in compile_ms.
            double round_ms = 0, round_bytes = 0;
            for (size_t i = 0; i < apps_.size(); ++i) {
                round_ms += app_ms[i];
                round_bytes += static_cast<double>(apps_[i]->source.size());
            }
            metric("throughput_MBps",
                   ratio(round_bytes / 1e6, round_ms / 1000.0), "MB/s");
            metric("requests_per_s",
                   ratio(static_cast<double>(apps_.size()),
                         round_ms / 1000.0),
                   "1/s");
            metric("latency_ms_p50", percentile(app_ms, 50), "ms");
            metric("latency_ms_p90", percentile(app_ms, 90), "ms");
        } else {
            const ServeTally &t = untraced_;
            metric("throughput_MBps",
                   ratio(static_cast<double>(t.bytes) / 1e6,
                         t.wallMs / 1000.0),
                   "MB/s");
            metric("requests_per_s",
                   ratio(static_cast<double>(t.requests()),
                         t.wallMs / 1000.0),
                   "1/s");
            metric("latency_ms_p50", percentile(t.latency, 50), "ms");
            metric("latency_ms_p90", percentile(t.latency, 90), "ms");
        }
        metric("ok_ratio",
               1.0 - ratio(static_cast<double>(rep_.failed),
                           static_cast<double>(rep_.attempted)),
               "ratio");
        metric("peak_rss_mb", peakRssMb(), "MB");

        std::ostringstream oss;
        oss << spec_.name << " seed " << cfg_.seed << ": "
            << setupS_.size() << " set-up passes, " << compiles
            << (corpus ? " measured builds" : " set-up compiles");
        if (!corpus) {
            oss << ", " << untraced_.requests() << " requests in "
                << batches_ << " batches";
        }
        rep_.lines.push_back(oss.str());
    }

    void
    traceMetrics()
    {
        const auto totals = tracer_.totals();
        auto span_ms = [&](const std::string &name) {
            auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.spanMs;
        };
        auto self_ms = [&](const std::string &name) {
            auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.selfMs;
        };
        auto mean_span = [&](const std::string &name) {
            auto it = totals.find(name);
            return it == totals.end()
                       ? 0.0
                       : ratio(it->second.spanMs,
                               static_cast<double>(it->second.count));
        };
        const double builds = static_cast<double>(replays_);
        auto per_build = [&](double ms) { return ratio(ms, builds); };

        // Front end: parse() lexes internally, so the lexer's share of
        // each parse span is the standalone lex() probe beside it.
        metric("lang.lex_ms", per_build(span_ms("lang.lex")), "ms");
        metric("lang.parse_ms",
               per_build(span_ms("lang.parse") - span_ms("lang.lex")),
               "ms");
        metric("lang.sema_ms", per_build(span_ms("lang.sema")), "ms");
        metric("passes.lower_adapters_ms",
               per_build(span_ms("passes.lower_adapters")), "ms");
        metric("passes.eliminate_hierarchy_ms",
               per_build(span_ms("passes.eliminate_hierarchy")), "ms");
        metric("passes.if_to_select_ms",
               per_build(span_ms("passes.if_to_select")), "ms");
        metric("graph.lower_ms", per_build(span_ms("graph.lower")), "ms");
        for (const auto &pass : graph::makeDefaultPasses(kOpts.graphOpt)) {
            metric("graph.opt.rewrite_ms." + pass->name(),
                   per_build(span_ms("graph.opt.rewrite." + pass->name())),
                   "ms");
        }
        // runPasses() minus its rewrites: translation validation,
        // between-pass verification and the fixpoint loop.
        metric("graph.opt.certify_ms", per_build(self_ms("graph.opt")),
               "ms");

        // Counts for one build of each of the workload's apps.
        double iterations = 0, validated = 0, runs = 0, useful = 0,
               lowered = 0;
        for (size_t i = 0; i < apps_.size(); ++i) {
            iterations += shapes_[i].optIterations;
            validated += shapes_[i].validatedPasses;
            runs += passRuns_[i];
            useful += usefulRuns_[i];
            lowered += static_cast<double>(nodesLowered_[i]);
        }
        metric("graph.opt.iterations", iterations, "count");
        metric("graph.opt.pass_runs", runs, "count");
        metric("graph.opt.validated_passes", validated, "count");
        metric("graph.opt.useful_run_ratio", ratio(useful, runs), "ratio");
        metric("graph.nodes_lowered", lowered, "count");
        metric("graph.absint_ms", per_build(span_ms("graph.absint")), "ms");
        metric("graph.analyze_ms", per_build(span_ms("graph.analyze")),
               "ms");
        metric("graph.resources_ms", per_build(span_ms("graph.resources")),
               "ms");
        metric("graph.bytecode_ms", per_build(span_ms("graph.bytecode")),
               "ms");
        const double coverage = ratio(replayLayersMs_, pairedBuildMs_);
        metric("compile.coverage_ratio", coverage, "ratio");
        check(coverage >= 0.9 && coverage <= 1.1,
              "replay spans cover " + std::to_string(coverage) +
                  "x of the untraced build() time (want 0.9-1.1)");

        const ArtifactCache::Stats cs = ArtifactCache::global().stats();
        metric("core.cache_get_ms", mean_span("core.cache_get"), "ms");
        metric("core.cache_hit_ratio",
               ratio(static_cast<double>(cs.hits),
                     static_cast<double>(cs.hits + cs.misses)),
               "ratio");
        metric("core.context_make_ms", mean_span("core.context_make"),
               "ms");

        const ServeTally &t = traced_;
        metric("serve.queue_ms_p50", percentile(t.queue, 50), "ms");
        metric("serve.exec_ms_p50", percentile(t.exec, 50), "ms");
        metric("serve.context_reuse_ratio",
               ratio(static_cast<double>(t.contextsReused),
                     static_cast<double>(t.contextsReused +
                                         t.contextsCreated)),
               "ratio");

        const double runs_n = static_cast<double>(t.engineRuns);
        double exec_ms = 0;
        for (double ms : t.exec)
            exec_ms += ms;
        auto per_run = [&](uint64_t n) {
            return ratio(static_cast<double>(n), runs_n);
        };
        metric("engine.quanta", per_run(t.quanta), "count");
        metric("engine.ns_per_quantum",
               ratio(exec_ms * 1e6, static_cast<double>(t.quanta)), "ns");
        metric("engine.tokens", per_run(t.tokens), "count");
        metric("engine.ns_per_token",
               ratio(exec_ms * 1e6, static_cast<double>(t.tokens)), "ns");
        metric("engine.useful_step_ratio",
               ratio(static_cast<double>(t.steps - t.idleSteps),
                     static_cast<double>(t.steps)),
               "ratio");
        metric("engine.wakeups", per_run(t.wakeups), "count");
        metric("engine.verify_passes", per_run(t.verifyPasses), "count");
        metric("engine.steals", per_run(t.steals), "count");
        metric("engine.dram_elems", per_run(t.dramElems), "count");
        metric("engine.sram_accesses", per_run(t.sramAccesses), "count");
        metric("engine.sram_arena_reused", per_run(t.arenaReused), "count");

        metric("failed_ratio",
               ratio(static_cast<double>(rep_.failed),
                     static_cast<double>(rep_.attempted)),
               "ratio");

        // What tracing costs, so per-layer numbers are read against it:
        // replayed vs plain builds on compile_corpus, traced vs untraced
        // batches (alternating) on the serving workloads.
        double overhead = 0;
        if (spec_.name == "compile_corpus") {
            overhead = ratio(replayWallMs_, pairedBuildMs_) - 1.0;
        } else {
            overhead = ratio(percentile(traced_.latency, 50),
                             percentile(untraced_.latency, 50)) -
                       1.0;
        }
        metric("trace.overhead_ratio", overhead, "ratio");

        std::ostringstream oss;
        oss << spec_.name << " seed " << cfg_.seed << " (traced): "
            << replays_ << " replayed builds, " << traced_.requests()
            << " traced + " << untraced_.requests()
            << " untraced requests, " << tracer_.spans().size()
            << " spans";
        rep_.lines.push_back(oss.str());
    }

    const RunConfig &cfg_;
    Spec spec_;
    std::mt19937_64 rng_;
    Tracer tracer_;
    RunReport rep_;
    int errorLines_ = 0;
    int64_t nextRequest_ = 0;
    uint64_t batches_ = 0;

    std::vector<const apps::App *> apps_;
    std::vector<std::shared_ptr<const CompiledArtifact>> arts_;
    std::vector<std::shared_ptr<const CompiledArtifact>> last_;
    std::vector<ArtifactShape> shapes_;
    std::vector<std::vector<Case>> cases_;

    std::vector<double> setupS_;
    /** Cold compile times per app: set-up cache misses, and the
     * measured builds of compile_corpus. */
    std::vector<std::vector<double>> setupCompileMs_, buildMsByApp_;

    double replayLayersMs_ = 0, replayWallMs_ = 0, pairedBuildMs_ = 0;
    int replays_ = 0;
    std::map<size_t, int> passRuns_, usefulRuns_;
    std::map<size_t, size_t> nodesLowered_;

    ServeTally traced_, untraced_;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"compile_corpus", "serve_warm", "exec_parallel"};
}

RunReport
runWorkload(const RunConfig &cfg)
{
    Run run(cfg);
    return run.execute();
}

} // namespace perfbench
