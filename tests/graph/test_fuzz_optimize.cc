/**
 * @file
 * Randomized DFG differential testing for the graph optimizer
 * (WaveCert-style equivalence checking, but over generated graphs
 * instead of hand-picked fixtures).
 *
 * A seeded generator builds random dataflow graphs from the same
 * structural templates lower.cc emits — element-wise blocks (with
 * DRAM reads and index-keyed DRAM writes), fanouts, if-diamonds
 * (filter pair + forward merge), counter/broadcast/reduce expansions,
 * full while-loop templates (fbMerge header with backedge filters),
 * replicate regions with genuine pass-over links — order-preserving
 * block pipelines with crossing links AND thread-reordering bodies
 * (a whole while template inside the region) whose pass-over lanes
 * ride the bundles for ordinal-keyed parking — and narrow
 * (i8/i16/bool) lanes that exercise sub-word packing. Every graph is
 * Dfg::verify()-clean by construction and executes to quiescence.
 *
 * Each optimizer configuration (every pass alone, plus the full
 * pipeline) runs on >= 200 generated graphs; the optimized graph must
 * stay verify()-clean and produce bit-identical DRAM output to the
 * unoptimized graph under every engine scheduling policy, and leave
 * no park slot occupied. runPasses must also give the same graph and
 * report as the reference fixpoint (reference_fixpoint.hh), which
 * reuses no analysis between passes. Failures shrink by regenerating
 * the same seed with fewer stages and print the seed, configuration,
 * and offending graph's toDot() so the case can be replayed:
 *
 *   REVET_FUZZ_SEED=<seed> REVET_FUZZ_ITERS=1 \
 *     ./tests/revet_test_fuzz --gtest_filter='...<config>...'
 *
 * Determinism note: generated graphs observe results only through
 * DRAM writes keyed by a per-thread unique index lane that rides
 * every filter/merge bundle, so thread reordering inside whiles and
 * diamonds cannot make output schedule-dependent; values never bypass
 * a reordering construct outside its bundles. Pass-over values come
 * in both supported shapes: crossing links around order-preserving
 * replicate regions (FIFO parking), and pure ride lanes through
 * regions whose body is a full while template (ordinal-keyed
 * parking — the index lane and every untouched data lane ride the
 * reordering region's bundles and get converted to keyed parks).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "graph/absint.hh"
#include "graph/bytecode.hh"
#include "graph/dfg.hh"
#include "graph/exec.hh"
#include "graph/optimize.hh"
#include "lang/dram_image.hh"
#include "lang/parse.hh"
#include "lang/type.hh"

#include "oracle.hh"
#include "reference_fixpoint.hh"
#include "single_pass.hh"

using namespace revet;
using namespace revet::graph;
using lang::DramImage;
using lang::Scalar;

namespace
{

// DRAM layout shared by every generated graph: region 0 is read-only
// input, region 1 a write scratchpad, region 2 the final output.
constexpr int kDramIn = 0;
constexpr int kDramScratch = 1;
constexpr int kDramOut = 2;
constexpr int kInElems = 64;

const lang::Program &
dramProgram()
{
    static lang::Program prog = lang::parseAndAnalyze(R"(
        DRAM<int> in; DRAM<int> scratch; DRAM<int> out;
        void main(int n) { out[0] = n; })");
    return prog;
}

int
envInt(const char *name, int fallback)
{
    const char *v = std::getenv(name);
    return v ? std::atoi(v) : fallback;
}

/** Convenience wrapper for assembling one block node. */
struct BlockBuilder
{
    Dfg &g;
    int id;

    BlockBuilder(Dfg &graph, const std::string &name) : g(graph)
    {
        id = graph.newNode(NodeKind::block, name).id;
    }

    Node &node() { return g.nodes[id]; }

    int
    input(int link)
    {
        int reg = node().nRegs++;
        node().inputRegs.push_back(reg);
        g.connectIn(id, link);
        return reg;
    }

    BlockOp &
    emit(OpKind kind, int dst, int a = -1, int b = -1, int c = -1)
    {
        BlockOp op;
        op.kind = kind;
        op.dst = dst;
        op.a = a;
        op.b = b;
        op.c = c;
        node().ops.push_back(op);
        return node().ops.back();
    }

    int
    op(OpKind kind, int a = -1, int b = -1, int c = -1)
    {
        int dst = node().nRegs++;
        emit(kind, dst, a, b, c);
        return dst;
    }

    int
    cnst(Word value)
    {
        int dst = node().nRegs++;
        emit(OpKind::cnst, dst).imm = value;
        return dst;
    }

    int
    norm(int reg, Scalar elem)
    {
        if (lang::bitWidth(elem) >= 32)
            return reg;
        int dst = node().nRegs++;
        emit(OpKind::norm, dst, reg).elem = elem;
        return dst;
    }

    int
    output(int reg, const std::string &name, Scalar elem = Scalar::i32)
    {
        int link = g.newLink(name, elem);
        node().outputRegs.push_back(reg);
        g.connectOut(id, link);
        return link;
    }
};

/**
 * The generator. One aligned group of streams — a unique per-thread
 * index lane plus data lanes — evolves through a random sequence of
 * stage templates and finally drains into index-keyed DRAM writes.
 */
class RandomDfg
{
  public:
    RandomDfg(uint32_t seed, int stages) : rng_(seed)
    {
        build(stages);
    }

    Dfg graph;          ///< verify()-clean result
    int scratchElems = 0; ///< required scratch region size (elements)
    int outElems = 0;     ///< required out region size (elements)

  private:
    struct Lane
    {
        int link;
        Scalar elem;
    };

    std::mt19937 rng_;
    int indexLink_ = -1; ///< unique per-thread key, always carried
    std::vector<Lane> lanes_;
    int threads_ = 0;
    int writeSlots_ = 0; ///< scratch rows consumed by write stages
    int nameId_ = 0;
    /** While set, every node the structural helpers create belongs to
     * this replicate region (the reordering-replicate template wraps
     * a whole while template in one). */
    int regionMark_ = -1;

    void
    tag(int nodeId)
    {
        if (regionMark_ >= 0) {
            graph.nodes[nodeId].replicateRegion = regionMark_;
            graph.replicates[regionMark_].nodeIds.push_back(nodeId);
        }
    }

    int
    pick(int lo, int hi) // inclusive
    {
        return lo + static_cast<int>(rng_() % (hi - lo + 1));
    }

    std::string
    uniq(const char *base)
    {
        return std::string(base) + std::to_string(nameId_++);
    }

    Scalar
    randomElem()
    {
        switch (pick(0, 5)) {
          case 0: return Scalar::i8;
          case 1: return Scalar::u8;
          case 2: return Scalar::i16;
          case 3: return Scalar::u16;
          case 4: return Scalar::boolTy;
          default: return Scalar::i32;
        }
    }

    /** A random pure binary op (division stays total via |1 below). */
    OpKind
    randomOp()
    {
        static const OpKind kinds[] = {
            OpKind::add,  OpKind::sub,  OpKind::mul, OpKind::xorb,
            OpKind::andb, OpKind::orb,  OpKind::shl, OpKind::shru,
            OpKind::eq,   OpKind::ltu,  OpKind::lts, OpKind::divu,
        };
        return kinds[pick(0, 11)];
    }

    /** Compute a random value over the given block registers. */
    int
    randomExpr(BlockBuilder &b, const std::vector<int> &regs)
    {
        int a = regs[pick(0, static_cast<int>(regs.size()) - 1)];
        int r = regs[pick(0, static_cast<int>(regs.size()) - 1)];
        OpKind kind = randomOp();
        if (pick(0, 2) == 0)
            r = b.cnst(rng_() & 0xffff);
        if (kind == OpKind::divu)
            r = b.op(OpKind::orb, r, b.cnst(1)); // keep division total
        if (kind == OpKind::shl || kind == OpKind::shru)
            r = b.op(OpKind::andb, r, b.cnst(7));
        return b.op(kind, a, r);
    }

    void
    build(int stages)
    {
        threads_ = pick(4, 20);

        // __start -> bounds block -> counter: per-thread index stream.
        auto &start = graph.newNode(NodeKind::source, "__start");
        int tok = graph.newLink("tok");
        graph.connectOut(start.id, tok);
        BlockBuilder bounds(graph, "bounds");
        bounds.input(tok);
        int rmin = bounds.cnst(0);
        int rmax = bounds.cnst(static_cast<Word>(threads_));
        int rstep = bounds.cnst(1);
        int lmin = bounds.output(rmin, "min");
        int lmax = bounds.output(rmax, "max");
        int lstep = bounds.output(rstep, "step");
        auto &ctr = graph.newNode(NodeKind::counter, "threads");
        graph.connectIn(ctr.id, lmin);
        graph.connectIn(ctr.id, lmax);
        graph.connectIn(ctr.id, lstep);
        int iv = graph.newLink("iv");
        graph.connectOut(ctr.id, iv);

        // Seed block: index passthrough plus a few data lanes (one
        // from DRAM so input data matters).
        BlockBuilder seed(graph, "seed");
        int rIv = seed.input(iv);
        indexLink_ = seed.output(rIv, "index");
        int addr = seed.op(OpKind::andb, rIv,
                           seed.cnst(kInElems - 1));
        int loaded = seed.op(OpKind::dramRead, addr);
        seed.node().ops.back().dram = kDramIn;
        pushLane(seed, loaded, Scalar::i32);
        pushLane(seed, seed.op(OpKind::mul, rIv, seed.cnst(3)),
                 pick(0, 1) ? randomElem() : Scalar::i32);
        finishLanes(seed);

        for (int s = 0; s < stages; ++s) {
            switch (pick(0, 9)) {
              case 0:
              case 1:
              case 2:
                stageBlock();
                break;
              case 3:
                stageFanout();
                break;
              case 4:
              case 5:
                stageDiamond();
                break;
              case 6:
                stageCounterReduce();
                break;
              case 7:
                stageWhile();
                break;
              case 8:
                stageReplicate();
                break;
              default:
                stageReplicateWhile();
                break;
            }
        }
        finalWrites();
        graph.verify();
    }

    // Pending lane registers for a block under construction: lanes_
    // is only updated once the block's outputs exist.
    std::vector<std::pair<int, Scalar>> pendingLanes_;

    void
    pushLane(BlockBuilder &b, int reg, Scalar elem)
    {
        pendingLanes_.emplace_back(b.norm(reg, elem), elem);
    }

    void
    finishLanes(BlockBuilder &b)
    {
        for (auto &[reg, elem] : pendingLanes_)
            lanes_.push_back({b.output(reg, uniq("d"), elem), elem});
        pendingLanes_.clear();
    }

    /** Element-wise stage: consume some lanes, emit some new ones,
     * sometimes write scratch at the unique index. */
    void
    stageBlock()
    {
        BlockBuilder b(graph, uniq("blk"));
        int rIdx = b.input(indexLink_);
        std::vector<int> regs{rIdx};
        int consume = pick(1, static_cast<int>(lanes_.size()));
        std::vector<Lane> rest;
        for (size_t i = 0; i < lanes_.size(); ++i) {
            if (static_cast<int>(i) < consume)
                regs.push_back(b.input(lanes_[i].link));
            else
                rest.push_back(lanes_[i]);
        }
        indexLink_ = b.output(rIdx, "index");
        lanes_ = std::move(rest);

        int emit = pick(1, 3);
        for (int i = 0; i < emit; ++i) {
            Scalar elem = pick(0, 1) ? randomElem() : Scalar::i32;
            pushLane(b, randomExpr(b, regs), elem);
        }
        if (pick(0, 2) == 0) {
            // Scratch write at a unique address: row per write stage,
            // column per thread — deterministic under any schedule.
            // All operand ops are emitted before the write so the
            // returned BlockOp reference cannot dangle on reallocation.
            int addr = b.op(
                OpKind::add, rIdx,
                b.cnst(static_cast<Word>(writeSlots_ * 32)));
            int value = randomExpr(b, regs);
            int guard = pick(0, 1) // guarded writes too
                ? b.op(OpKind::andb, regs.back(), b.cnst(1))
                : -1;
            auto &op = b.emit(OpKind::dramWrite, -1, addr, value);
            op.dram = kDramScratch;
            op.guard = guard;
            ++writeSlots_;
        }
        finishLanes(b);
    }

    void
    stageFanout()
    {
        if (lanes_.empty())
            return;
        int i = pick(0, static_cast<int>(lanes_.size()) - 1);
        auto &fan = graph.newNode(NodeKind::fanout, uniq("fan"));
        graph.connectIn(fan.id, lanes_[i].link);
        for (int c = 0; c < 2; ++c) {
            int l = graph.newLink(uniq("d"), lanes_[i].elem);
            graph.connectOut(fan.id, l);
            if (c == 0)
                lanes_[i].link = l;
            else
                lanes_.push_back({l, lanes_[i].elem});
        }
    }

    /** Copy every group stream n ways (index + lanes). */
    std::vector<std::vector<int>>
    fanGroup(const std::vector<int> &links, int n)
    {
        std::vector<std::vector<int>> out(n);
        for (int link : links) {
            auto &fan = graph.newNode(NodeKind::fanout, uniq("fan"));
            tag(fan.id);
            graph.connectIn(fan.id, link);
            for (int c = 0; c < n; ++c) {
                int l = graph.newLink(uniq("c"),
                                      graph.links[link].elem);
                graph.connectOut(fan.id, l);
                out[c].push_back(l);
            }
        }
        return out;
    }

    std::vector<int>
    filterBundle(int pred, bool sense, const std::vector<int> &ins,
                 const std::vector<int> &existing = {})
    {
        auto &f = graph.newNode(NodeKind::filter, uniq("flt"));
        tag(f.id);
        f.sense = sense;
        graph.connectIn(f.id, pred);
        std::vector<int> outs;
        for (size_t i = 0; i < ins.size(); ++i) {
            graph.connectIn(f.id, ins[i]);
            int l;
            if (!existing.empty()) {
                l = existing[i];
                graph.nodes[f.id].outs.push_back(l);
                graph.links[l].src = f.id;
            } else {
                l = graph.newLink(uniq("f"), graph.links[ins[i]].elem);
                graph.connectOut(f.id, l);
            }
            outs.push_back(l);
        }
        return outs;
    }

    std::vector<int>
    groupLinks() const
    {
        std::vector<int> all{indexLink_};
        for (const auto &lane : lanes_)
            all.push_back(lane.link);
        return all;
    }

    void
    adoptGroup(const std::vector<int> &links)
    {
        indexLink_ = links[0];
        for (size_t i = 1; i < links.size(); ++i)
            lanes_[i - 1].link = links[i];
    }

    /** If-diamond: filter the whole group both ways on a computed
     * predicate, transform one arm, and forward-merge the arms.
     * Narrow lanes entering the merge exercise sub-word packing. */
    void
    stageDiamond()
    {
        // Predicate block re-emits the group plus a predicate.
        BlockBuilder b(graph, uniq("pred"));
        int rIdx = b.input(indexLink_);
        std::vector<int> regs{rIdx};
        std::vector<Scalar> elems;
        for (auto &lane : lanes_) {
            regs.push_back(b.input(lane.link));
            elems.push_back(lane.elem);
        }
        int pred = b.op(OpKind::andb,
                        regs[pick(0, static_cast<int>(regs.size()) - 1)],
                        b.cnst(1));
        indexLink_ = b.output(rIdx, "index");
        for (size_t i = 0; i < lanes_.size(); ++i)
            lanes_[i].link = b.output(regs[i + 1], uniq("d"), elems[i]);
        int predLink = b.output(pred, "p", Scalar::boolTy);

        auto predCopies = fanGroup({predLink}, 2);
        auto copies = fanGroup(groupLinks(), 2);
        auto thenIn =
            filterBundle(predCopies[0][0], true, copies[0]);
        auto elseIn =
            filterBundle(predCopies[1][0], false, copies[1]);

        // Optionally transform the then-arm (index passes through).
        if (pick(0, 1)) {
            BlockBuilder arm(graph, uniq("then"));
            std::vector<int> armRegs;
            for (int l : thenIn)
                armRegs.push_back(arm.input(l));
            std::vector<int> outs;
            outs.push_back(arm.output(armRegs[0], "index"));
            for (size_t i = 1; i < armRegs.size(); ++i) {
                Scalar elem = graph.links[elseIn[i]].elem;
                int v = armRegs[i];
                if (pick(0, 1))
                    v = arm.norm(randomExpr(arm, armRegs), elem);
                outs.push_back(arm.output(v, uniq("d"), elem));
            }
            thenIn = outs;
        }

        auto &merge = graph.newNode(NodeKind::fwdMerge, uniq("join"));
        for (int l : thenIn)
            graph.connectIn(merge.id, l);
        for (int l : elseIn)
            graph.connectIn(merge.id, l);
        std::vector<int> outs;
        for (int l : elseIn) {
            int o = graph.newLink(uniq("m"), graph.links[l].elem);
            graph.connectOut(merge.id, o);
            outs.push_back(o);
        }
        adoptGroup(outs);
    }

    /** Nested counter + broadcast + reduce: a bounded sub-expansion
     * whose additive result rejoins the group. */
    void
    stageCounterReduce()
    {
        BlockBuilder b(graph, uniq("bnds"));
        int rIdx = b.input(indexLink_);
        std::vector<int> regs{rIdx};
        for (auto &lane : lanes_)
            regs.push_back(b.input(lane.link));
        int trip = b.op(OpKind::andb,
                        regs[pick(0, static_cast<int>(regs.size()) - 1)],
                        b.cnst(3));
        indexLink_ = b.output(rIdx, "index");
        for (size_t i = 0; i < lanes_.size(); ++i)
            lanes_[i].link =
                b.output(regs[i + 1], uniq("d"), lanes_[i].elem);
        int lmin = b.output(b.cnst(0), "min");
        int lmax = b.output(trip, "max");
        int lstep = b.output(b.cnst(1), "step");
        // A shallow value to broadcast into the deep level.
        int shallow = b.output(
            regs[pick(0, static_cast<int>(regs.size()) - 1)], "sh");

        auto &ctr = graph.newNode(NodeKind::counter, uniq("ctr"));
        graph.connectIn(ctr.id, lmin);
        graph.connectIn(ctr.id, lmax);
        graph.connectIn(ctr.id, lstep);
        int iv2 = graph.newLink("iv2");
        graph.connectOut(ctr.id, iv2);

        auto &fan = graph.newNode(NodeKind::fanout, uniq("fan"));
        graph.connectIn(fan.id, iv2);
        int deepA = graph.newLink("iv2a"), deepB = graph.newLink("iv2b");
        graph.connectOut(fan.id, deepA);
        graph.connectOut(fan.id, deepB);

        auto &bc = graph.newNode(NodeKind::broadcast, uniq("bc"));
        graph.connectIn(bc.id, deepA);
        graph.connectIn(bc.id, shallow);
        int deepVal = graph.newLink("bcv");
        graph.connectOut(bc.id, deepVal);

        BlockBuilder deep(graph, uniq("deep"));
        int rA = deep.input(deepB);
        int rV = deep.input(deepVal);
        int contrib = deep.op(OpKind::add, deep.op(OpKind::mul, rA, rV),
                              deep.cnst(rng_() & 0xff));
        int contribLink = deep.output(contrib, "contrib");

        auto &red = graph.newNode(NodeKind::reduce, uniq("red"));
        red.init = 0;
        graph.connectIn(red.id, contribLink);
        int result = graph.newLink("sum");
        graph.connectOut(red.id, result);
        lanes_.push_back({result, Scalar::i32});
    }

    /** Full while-loop template (the lowerWhile shape): a bounded
     * countdown carried in the bundle, every lane recirculating
     * through the fbMerge header. */
    void
    stageWhile()
    {
        // Entry predicate block: v = lane & 3, pred = v != 0.
        BlockBuilder b(graph, uniq("wpred"));
        int rIdx = b.input(indexLink_);
        std::vector<int> regs{rIdx};
        for (auto &lane : lanes_)
            regs.push_back(b.input(lane.link));
        int v = b.op(OpKind::andb,
                     regs[pick(0, static_cast<int>(regs.size()) - 1)],
                     b.cnst(3));
        int pred = b.op(OpKind::ne, v, b.cnst(0));
        indexLink_ = b.output(rIdx, "index");
        for (size_t i = 0; i < lanes_.size(); ++i)
            lanes_[i].link =
                b.output(regs[i + 1], uniq("d"), lanes_[i].elem);
        lanes_.push_back({b.output(v, "v"), Scalar::i32});
        int predLink = b.output(pred, "wp", Scalar::boolTy);

        std::vector<int> bundle = groupLinks();
        auto predCopies = fanGroup({predLink}, 2);
        auto copies = fanGroup(bundle, 2);
        auto enter = filterBundle(predCopies[0][0], true, copies[0]);
        auto bypass = filterBundle(predCopies[1][0], false, copies[1]);

        auto &head = graph.newNode(NodeKind::fbMerge, uniq("whead"));
        std::vector<int> back, loop;
        for (int l : enter)
            graph.connectIn(head.id, l);
        for (size_t i = 0; i < enter.size(); ++i) {
            int l = graph.newLink(uniq("bk"), graph.links[enter[i]].elem);
            back.push_back(l);
            graph.connectIn(head.id, l);
        }
        for (size_t i = 0; i < enter.size(); ++i) {
            int l = graph.newLink(uniq("lp"), graph.links[enter[i]].elem);
            graph.connectOut(head.id, l);
            loop.push_back(l);
        }

        // Body: decrement v (last slot), recompute the predicate.
        BlockBuilder body(graph, uniq("wbody"));
        std::vector<int> bodyRegs;
        for (int l : loop)
            bodyRegs.push_back(body.input(l));
        int vIn = bodyRegs.back();
        int vNext = body.op(OpKind::sub, vIn, body.cnst(1));
        int pred2 = body.op(OpKind::ne, vNext, body.cnst(0));
        std::vector<int> after;
        for (size_t i = 0; i + 1 < bodyRegs.size(); ++i) {
            Scalar elem = graph.links[loop[i]].elem;
            int reg = bodyRegs[i];
            if (i > 0 && pick(0, 1)) // keep slot 0 (index) untouched
                reg = body.norm(randomExpr(body, bodyRegs), elem);
            after.push_back(body.output(reg, uniq("d"), elem));
        }
        after.push_back(body.output(vNext, "v"));
        int pred2Link = body.output(pred2, "wp2", Scalar::boolTy);

        auto pred2Copies = fanGroup({pred2Link}, 2);
        auto backCopies = fanGroup(after, 2);
        filterBundle(pred2Copies[0][0], true, backCopies[0], back);
        auto exits =
            filterBundle(pred2Copies[1][0], false, backCopies[1]);

        std::vector<int> stripped;
        for (int l : exits) {
            auto &fl = graph.newNode(NodeKind::flatten, uniq("strip"));
            graph.connectIn(fl.id, l);
            int o = graph.newLink(uniq("x"), graph.links[l].elem);
            graph.connectOut(fl.id, o);
            stripped.push_back(o);
        }

        auto &join = graph.newNode(NodeKind::fwdMerge, uniq("wjoin"));
        for (int l : bypass)
            graph.connectIn(join.id, l);
        for (int l : stripped)
            graph.connectIn(join.id, l);
        std::vector<int> outs;
        for (int l : bypass) {
            int o = graph.newLink(uniq("w"), graph.links[l].elem);
            graph.connectOut(join.id, o);
            outs.push_back(o);
        }
        adoptGroup(outs);
        lanes_.pop_back(); // v has served its purpose
        auto &sk = graph.newNode(NodeKind::sink, "sink.v");
        graph.connectIn(sk.id, outs.back());
    }

    /** Replicate region: an order-preserving block pipeline consumes
     * a subset of lanes; the rest (and the index) pass over it as
     * crossing links for replicate-bufferize to park. */
    void
    stageReplicate()
    {
        int rid = static_cast<int>(graph.replicates.size());
        ReplicateInfo info;
        info.id = rid;
        info.replicas = pick(2, 4);

        int consume =
            pick(1, std::max(1, static_cast<int>(lanes_.size()) - 1));
        info.liveValuesIn = consume;
        graph.replicates.push_back(info);

        int depth = pick(1, 2);
        std::vector<Lane> inside(lanes_.begin(),
                                 lanes_.begin() + consume);
        for (int d = 0; d < depth; ++d) {
            BlockBuilder b(graph, uniq("repl"));
            b.node().replicateRegion = rid;
            graph.replicates[rid].nodeIds.push_back(b.id);
            std::vector<int> regs;
            for (auto &lane : inside)
                regs.push_back(b.input(lane.link));
            for (auto &lane : inside) {
                Scalar elem = lane.elem;
                lane.elem = pick(0, 1) ? elem : Scalar::i32;
                lane.link = b.output(
                    b.norm(randomExpr(b, regs), lane.elem), uniq("d"),
                    lane.elem);
            }
        }
        for (int i = 0; i < consume; ++i)
            lanes_[i] = inside[i];
    }

    /**
     * Thread-reordering replicate region: the full while template
     * (fanouts, enter/skip filters, fbMerge header, backedge and exit
     * filters, flatten, join) lives inside one region, so the region
     * emits threads out of entry order. The countdown lane v and its
     * source lane are consumed inside; the index lane and every other
     * data lane ride the bundles as pure identity lanes — genuine
     * pass-over links in the reordering shape, which replicate-
     * bufferize converts to ordinal-keyed park/restore pairs.
     */
    void
    stageReplicateWhile()
    {
        int rid = static_cast<int>(graph.replicates.size());
        ReplicateInfo info;
        info.id = rid;
        info.replicas = pick(2, 4);
        info.liveValuesIn = 1;
        graph.replicates.push_back(info);
        regionMark_ = rid;

        // Entry block (inside the region): identity on the whole
        // group plus the countdown v and its predicate, both derived
        // from the last lane (which therefore keeps riding untouched
        // by the rewrite — it is read here, not a pure ride).
        BlockBuilder b(graph, uniq("rpred"));
        tag(b.id);
        int rIdx = b.input(indexLink_);
        std::vector<int> regs{rIdx};
        for (auto &lane : lanes_)
            regs.push_back(b.input(lane.link));
        int v = b.op(OpKind::andb, regs.back(), b.cnst(3));
        int pred = b.op(OpKind::ne, v, b.cnst(0));
        indexLink_ = b.output(rIdx, "index");
        for (size_t i = 0; i < lanes_.size(); ++i)
            lanes_[i].link =
                b.output(regs[i + 1], uniq("d"), lanes_[i].elem);
        lanes_.push_back({b.output(v, "v"), Scalar::i32});
        int predLink = b.output(pred, "rp", Scalar::boolTy);

        std::vector<int> bundle = groupLinks();
        auto predCopies = fanGroup({predLink}, 2);
        auto copies = fanGroup(bundle, 2);
        auto enter = filterBundle(predCopies[0][0], true, copies[0]);
        auto bypass = filterBundle(predCopies[1][0], false, copies[1]);

        auto &head = graph.newNode(NodeKind::fbMerge, uniq("rwhead"));
        tag(head.id);
        std::vector<int> back, loop;
        for (int l : enter)
            graph.connectIn(head.id, l);
        for (size_t i = 0; i < enter.size(); ++i) {
            int l = graph.newLink(uniq("bk"), graph.links[enter[i]].elem);
            back.push_back(l);
            graph.connectIn(head.id, l);
        }
        for (size_t i = 0; i < enter.size(); ++i) {
            int l = graph.newLink(uniq("lp"), graph.links[enter[i]].elem);
            graph.connectOut(head.id, l);
            loop.push_back(l);
        }

        // Body: decrement v and recompute the predicate; every other
        // lane passes through untouched so it stays a pure ride.
        BlockBuilder body(graph, uniq("rbody"));
        tag(body.id);
        std::vector<int> bodyRegs;
        for (int l : loop)
            bodyRegs.push_back(body.input(l));
        int vNext = body.op(OpKind::sub, bodyRegs.back(), body.cnst(1));
        int pred2 = body.op(OpKind::ne, vNext, body.cnst(0));
        std::vector<int> after;
        for (size_t i = 0; i + 1 < bodyRegs.size(); ++i) {
            after.push_back(body.output(bodyRegs[i], uniq("d"),
                                        graph.links[loop[i]].elem));
        }
        after.push_back(body.output(vNext, "v"));
        int pred2Link = body.output(pred2, "rp2", Scalar::boolTy);

        auto pred2Copies = fanGroup({pred2Link}, 2);
        auto backCopies = fanGroup(after, 2);
        filterBundle(pred2Copies[0][0], true, backCopies[0], back);
        auto exits =
            filterBundle(pred2Copies[1][0], false, backCopies[1]);

        std::vector<int> stripped;
        for (int l : exits) {
            auto &fl = graph.newNode(NodeKind::flatten, uniq("strip"));
            tag(fl.id);
            graph.connectIn(fl.id, l);
            int o = graph.newLink(uniq("x"), graph.links[l].elem);
            graph.connectOut(fl.id, o);
            stripped.push_back(o);
        }

        auto &join = graph.newNode(NodeKind::fwdMerge, uniq("rwjoin"));
        tag(join.id);
        for (int l : bypass)
            graph.connectIn(join.id, l);
        for (int l : stripped)
            graph.connectIn(join.id, l);
        std::vector<int> outs;
        for (int l : bypass) {
            int o = graph.newLink(uniq("w"), graph.links[l].elem);
            graph.connectOut(join.id, o);
            outs.push_back(o);
        }
        regionMark_ = -1;
        adoptGroup(outs);
        lanes_.pop_back(); // v has served its purpose
        auto &sk = graph.newNode(NodeKind::sink, "sink.rv");
        graph.connectIn(sk.id, outs.back());
    }

    /** Drain the group: every lane lands in out[index * width + lane],
     * unique addresses making the observation order-insensitive. */
    void
    finalWrites()
    {
        const int width = static_cast<int>(lanes_.size());
        BlockBuilder b(graph, "drain");
        int rIdx = b.input(indexLink_);
        int rBase = b.op(OpKind::mul, rIdx,
                         b.cnst(static_cast<Word>(width)));
        for (int i = 0; i < width; ++i) {
            int rLane = b.input(lanes_[i].link);
            int addr = b.op(OpKind::add, rBase,
                            b.cnst(static_cast<Word>(i)));
            auto &op = b.emit(OpKind::dramWrite, -1, addr, rLane);
            op.dram = kDramOut;
        }
        // The drain block still emits the index so the graph has a
        // dangling stream for the optimizer's sink handling to chew on.
        int tail = b.output(rIdx, "tail");
        auto &sk = graph.newNode(NodeKind::sink, "sink.tail");
        graph.connectIn(sk.id, tail);

        // threads_ indexes are < 32; whiles may nest groups but the
        // index range never grows.
        outElems = 32 * std::max(1, width);
        scratchElems = std::max(1, writeSlots_) * 32;
    }
};

/** One differential run; returns an empty string on success, else a
 * description of the divergence. */
std::string
diffOnce(uint32_t seed, int stages, const std::string &config)
{
    RandomDfg gen(seed, stages);
    Dfg optimized = gen.graph; // copy
    try {
        const GraphOptReport got = runPasses(
            optimized, fixtures::singlePassPipeline(config),
            GraphPassOptions{});
        optimized.verify();
        // The revision reuse inside runPasses must be exact: the same
        // graph and report as the fixpoint that recomputes everything,
        // and no pass that returned 0 may have touched its graph.
        Dfg reference = gen.graph;
        std::vector<std::string> broken;
        const GraphOptReport want = fixtures::referenceFixpoint(
            reference, fixtures::singlePassPipeline(config),
            GraphPassOptions{}, &broken);
        if (!broken.empty())
            return "pass contract: " + broken.front();
        if (got.summary() != want.summary() ||
            fixtures::fingerprint(optimized) !=
                fixtures::fingerprint(reference)) {
            return "runPasses diverged from the reference fixpoint: " +
                got.summary() + " vs " + want.summary();
        }
    } catch (const std::exception &err) {
        return std::string("optimizer/verify threw: ") + err.what();
    }
    // The image every generated graph runs on: seeded input, zeroed
    // scratch and output.
    const fixtures::Generate image = [&](DramImage &dram) {
        std::vector<int32_t> input(kInElems);
        std::mt19937 data(seed ^ 0x9e3779b9u);
        for (auto &v : input)
            v = static_cast<int32_t>(data());
        dram.fill("in", input);
        dram.resize("scratch", static_cast<size_t>(gen.scratchElems) * 4);
        dram.resize("out", static_cast<size_t>(gen.outElems) * 4);
        return std::vector<int32_t>{};
    };
    const BytecodeProgram raw_bc = BytecodeProgram::compile(gen.graph);
    const BytecodeProgram opt_bc = BytecodeProgram::compile(optimized);
    // The parallel leg pins 2 workers: enough for real cross-thread
    // channel traffic (and TSan evidence) without oversubscribing the
    // 3200-execution sweep.
    fixtures::DramBytes first_raw;
    for (int workers : {0, 2}) {
        const auto policy = workers ? dataflow::Engine::Policy::parallel
                                    : dataflow::Engine::Policy::worklist;
        const std::string name = workers ? "parallel" : "worklist";
        const auto a = fixtures::runCompiled(raw_bc, dramProgram(), image,
                                             policy, workers);
        const auto b = fixtures::runCompiled(opt_bc, dramProgram(), image,
                                             policy, workers);
        if (!a.stats.drained || !b.stats.drained)
            return "did not drain under policy " + name;
        if (first_raw.empty()) {
            // Per-link value sets are policy-independent; one policy's
            // observations are enough evidence per graph.
            std::string v =
                fixtures::checkValueSoundness(gen.graph, a.stats, "raw");
            if (v.empty()) {
                v = fixtures::checkValueSoundness(optimized, b.stats,
                                                  "optimized");
            }
            if (!v.empty())
                return "absint oracle: " + v;
            first_raw = a.dram;
        } else if (a.dram != first_raw) {
            // Cross-policy oracle: scheduling (including true
            // concurrency) must never leak into DRAM results.
            return "DRAM diverged between policies under " + name;
        }
        for (size_t d = 0; d < a.dram.size(); ++d) {
            if (a.dram[d] != b.dram[d]) {
                return "DRAM region " + std::to_string(d) +
                    " diverged under policy " + name;
            }
        }
        if (a.stats.sramParkedEnd != 0 || b.stats.sramParkedEnd != 0)
            return "park slots left occupied under policy " + name;
    }
    return "";
}

class FuzzOptimize : public ::testing::TestWithParam<std::string>
{};

TEST_P(FuzzOptimize, RandomGraphsBitIdentical)
{
    const std::string config = GetParam();
    const int iters = envInt("REVET_FUZZ_ITERS", 200);
    const uint32_t base =
        static_cast<uint32_t>(envInt("REVET_FUZZ_SEED", 20260730));
    const int maxStages = 6;

    for (int i = 0; i < iters; ++i) {
        uint32_t seed = base + static_cast<uint32_t>(i) * 7919u;
        std::string err = diffOnce(seed, maxStages, config);
        if (err.empty())
            continue;
        // Shrink: same seed, fewer stages, report the smallest still-
        // failing graph with everything needed to replay it.
        int failingStages = maxStages;
        std::string failingErr = err;
        for (int s = maxStages - 1; s >= 0; --s) {
            std::string e = diffOnce(seed, s, config);
            if (e.empty())
                break;
            failingStages = s;
            failingErr = e;
        }
        RandomDfg repro(seed, failingStages);
        FAIL() << "fuzz failure: config=" << config << " seed=" << seed
               << " stages=" << failingStages << ": " << failingErr
               << "\nreplay: REVET_FUZZ_SEED=" << seed
               << " REVET_FUZZ_ITERS=1 revet_test_fuzz"
               << " --gtest_filter='*" << config << "*'"
               << "\noffending graph:\n"
               << repro.graph.toDot();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FuzzOptimize,
    ::testing::Values("const-fold", "copy-prop", "fanout-coalesce",
                      "block-fusion", "dead-node-elim",
                      "replicate-bufferize", "subword-pack", "full"),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Generator self-checks: the harness only means something if the
// graphs it feeds the optimizer actually exercise the interesting
// shapes.

TEST(FuzzGenerator, GraphsAreVerifyCleanAndDiverse)
{
    int merges = 0, whiles = 0, regions = 0, narrow = 0, crossings = 0;
    int reordering = 0, rides = 0;
    for (uint32_t seed = 1; seed <= 60; ++seed) {
        RandomDfg gen(seed, 6);
        EXPECT_NO_THROW(gen.graph.verify()) << "seed " << seed;
        for (const auto &n : gen.graph.nodes) {
            merges += n.kind == NodeKind::fwdMerge;
            whiles += n.kind == NodeKind::fbMerge;
        }
        regions += static_cast<int>(gen.graph.replicates.size());
        for (const auto &l : gen.graph.links)
            narrow += lang::bitWidth(l.elem) < 32;
        for (const auto &r : gen.graph.replicates) {
            crossings += static_cast<int>(
                gen.graph.replicatePassOverLinks(r.id).size());
            rides += static_cast<int>(
                gen.graph.replicateRideLanes(r.id).size());
            for (int id : r.nodeIds)
                if (gen.graph.nodes[id].kind == NodeKind::fbMerge) {
                    ++reordering;
                    break;
                }
        }
    }
    EXPECT_GT(merges, 20);
    EXPECT_GT(whiles, 5);
    EXPECT_GT(regions, 10);
    EXPECT_GT(narrow, 100);
    EXPECT_GT(crossings, 10) << "no pass-over links: FIFO replicate-"
                                "bufferize is not being exercised";
    EXPECT_GT(reordering, 5) << "no thread-reordering regions";
    EXPECT_GT(rides, 10) << "no pure ride lanes: ordinal-keyed "
                            "parking is not being exercised";
}

TEST(FuzzGenerator, ReorderingRegionsGetOrdinalParked)
{
    // The templates must actually drive the ordinal machinery: run
    // the bufferize pass alone over a batch of generated graphs and
    // require keyed parks plus their ordinal lanes to appear.
    int keyed = 0, ordinals = 0;
    GraphPassOptions opts;
    for (uint32_t seed = 1; seed <= 30; ++seed) {
        RandomDfg gen(seed, 6);
        auto pass = makeReplicateBufferizePass();
        pass->run(gen.graph, opts);
        EXPECT_NO_THROW(gen.graph.verify()) << "seed " << seed;
        for (const auto &n : gen.graph.nodes) {
            keyed += n.kind == NodeKind::park && n.keyed;
            ordinals += n.kind == NodeKind::ordinal;
        }
    }
    EXPECT_GT(keyed, 10);
    EXPECT_GT(ordinals, 5);
    EXPECT_GE(keyed, ordinals);
}

TEST(FuzzGenerator, SameSeedSameGraph)
{
    RandomDfg a(42, 6), b(42, 6);
    EXPECT_EQ(a.graph.toDot(), b.graph.toDot());
    RandomDfg c(43, 6);
    EXPECT_NE(a.graph.toDot(), c.graph.toDot());
}

} // namespace
