/**
 * @file
 * Static DFG analyses: translation validation, token-rate balance,
 * and finite-buffer deadlock lint (see analyze.hh).
 */

#include "graph/analyze.hh"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "graph/absint.hh"

namespace revet
{
namespace graph
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
idArray(const std::vector<int> &ids)
{
    std::string out = "[";
    for (size_t i = 0; i < ids.size(); ++i) {
        if (i)
            out += ",";
        out += std::to_string(ids[i]);
    }
    return out + "]";
}

/** Memory-effect key for the conservation account ("" for pure ops). */
std::string
effectKey(const BlockOp &op)
{
    switch (op.kind) {
      case OpKind::sramWrite: return "sramWrite";
      case OpKind::rmwAdd: return "rmwAdd";
      case OpKind::rmwSub: return "rmwSub";
      case OpKind::dramWrite:
        return "dramWrite@" + std::to_string(op.dram);
      default: return {};
    }
}

std::string
nodeRef(const Dfg &g, int id)
{
    if (id < 0 || id >= static_cast<int>(g.nodes.size()))
        return "node#" + std::to_string(id);
    const Node &n = g.nodes[id];
    return "'" + n.name + "' (" + toString(n.kind) + " #" +
        std::to_string(id) + ")";
}

// ---------------------------------------------------------------------
// Affine symbolic rates
// ---------------------------------------------------------------------

/** An affine data-token rate: c + sum coeff_i * sym_i, terms sorted by
 * symbol id with no zero coefficients. */
struct Rate
{
    long long c = 0;
    std::vector<std::pair<int, long long>> terms;

    bool isConst() const { return terms.empty(); }
    bool isZero() const { return c == 0 && terms.empty(); }
};

Rate
rateConst(long long v)
{
    Rate r;
    r.c = v;
    return r;
}

Rate
rateSym(int sym)
{
    Rate r;
    r.terms.emplace_back(sym, 1);
    return r;
}

Rate
rateAdd(const Rate &a, const Rate &b)
{
    Rate out;
    out.c = a.c + b.c;
    size_t i = 0, j = 0;
    while (i < a.terms.size() || j < b.terms.size()) {
        if (j >= b.terms.size() ||
            (i < a.terms.size() && a.terms[i].first < b.terms[j].first)) {
            out.terms.push_back(a.terms[i++]);
        } else if (i >= a.terms.size() ||
                   b.terms[j].first < a.terms[i].first) {
            out.terms.push_back(b.terms[j++]);
        } else {
            long long k = a.terms[i].second + b.terms[j].second;
            if (k != 0)
                out.terms.emplace_back(a.terms[i].first, k);
            ++i;
            ++j;
        }
    }
    return out;
}

Rate
rateScale(const Rate &a, long long k)
{
    Rate out;
    if (k == 0)
        return out;
    out.c = a.c * k;
    for (const auto &t : a.terms)
        out.terms.emplace_back(t.first, t.second * k);
    return out;
}

Rate
rateSub(const Rate &a, const Rate &b)
{
    return rateAdd(a, rateScale(b, -1));
}

/** Trip count of a counter whose (min, max, step) are all proven
 * constant by the value-analysis lattice (absint.hh) — one fact source
 * shared with the optimizer — applying the Counter primitive's exact
 * semantics. */
std::optional<long long>
counterTrips(const Node &n, const AbsintReport &vals)
{
    if (n.ins.size() != 3)
        return std::nullopt;
    auto mn = vals.constantOf(n.ins[0]);
    auto mx = vals.constantOf(n.ins[1]);
    auto st = vals.constantOf(n.ins[2]);
    if (!mn || !mx || !st || *st == 0)
        return std::nullopt;
    long long lo = *mn, hi = *mx, step = *st;
    if (step > 0)
        return hi > lo ? (hi - lo + step - 1) / step : 0;
    return lo > hi ? (lo - hi - step - 1) / -step : 0;
}

/** Balance-equation solver over one graph's links. Sweeps retire a
 * constraint once its links are all known and agree: linkRate is
 * write-once, bindings only grow, and a difference that normalizes to
 * zero stays zero, so revisiting it could change nothing. Conflicting
 * constraints stay live, so every sweep re-checks them. */
struct RateSolver
{
    /** Links that must carry equal rates (one node's bundle law). */
    struct EqCls
    {
        std::vector<int> links;
        int node;
    };
    /** rate[out] = rate[a] + rate[b] (a merge's conservation law). */
    struct SumCon
    {
        int out, a, b;
        int node;
    };
    /** rate[out] = k * rate[in] (a constant-bound counter). */
    struct LinCon
    {
        int out, in;
        long long k;
        int node;
    };

    const Dfg &g;
    const AbsintReport &vals; ///< shared value-analysis facts
    std::vector<std::optional<Rate>> linkRate;
    std::vector<std::string> symNames;
    std::vector<std::optional<Rate>> bindings;
    std::vector<EqCls> classes;
    std::vector<SumCon> sums;
    std::vector<LinCon> linears;
    std::vector<Diagnostic> diags;
    std::set<std::pair<int, std::string>> reported;
    bool consistent = true;
    int conflicts = 0; ///< conflict() calls, repeats included

    RateSolver(const Dfg &dfg, const AbsintReport &vals)
        : g(dfg), vals(vals), linkRate(dfg.links.size())
    {
    }

    int
    newSym(const std::string &name)
    {
        symNames.push_back(name);
        bindings.emplace_back();
        return static_cast<int>(symNames.size()) - 1;
    }

    /** Substitute bound symbols, recursively (bind times strictly
     * increase along the substitution chain, so this terminates). */
    Rate
    normalize(const Rate &r) const
    {
        Rate out = rateConst(r.c);
        for (const auto &t : r.terms) {
            if (bindings[t.first]) {
                out = rateAdd(out,
                              rateScale(normalize(*bindings[t.first]),
                                        t.second));
            } else {
                out = rateAdd(out, rateScale(rateSym(t.first), t.second));
            }
        }
        return out;
    }

    std::string
    render(const Rate &raw) const
    {
        Rate r = normalize(raw);
        if (r.terms.empty())
            return std::to_string(r.c);
        std::string out;
        for (const auto &t : r.terms) {
            long long k = t.second;
            if (k < 0) {
                out += "-";
                k = -k;
            } else if (!out.empty()) {
                out += "+";
            }
            if (k != 1)
                out += std::to_string(k) + "*";
            out += symNames[t.first];
        }
        if (r.c > 0)
            out += "+" + std::to_string(r.c);
        else if (r.c < 0)
            out += std::to_string(r.c);
        return out;
    }

    void
    conflict(int node, const std::string &what, const Rate &a,
             const Rate &b, const std::vector<int> &links)
    {
        consistent = false;
        ++conflicts;
        if (!reported.insert({node, what}).second)
            return;
        if (diags.size() >= 16)
            return;
        Diagnostic d;
        d.analysis = "rates";
        d.code = "rate-imbalance";
        d.severity = Diagnostic::Severity::error;
        d.message = "balance conflict at " + nodeRef(g, node) + ": " +
            what + " require rate " + render(a) + " but found " +
            render(b);
        d.nodes = {node};
        d.links = links;
        diags.push_back(std::move(d));
    }

    /** Equate two rates, binding a free unit-coefficient symbol when
     * possible; reports a conflict otherwise. Returns true if a new
     * binding was made. */
    bool
    unify(const Rate &a, const Rate &b, int node, const std::string &what,
          const std::vector<int> &links)
    {
        Rate d = normalize(rateSub(a, b));
        if (d.isZero())
            return false;
        for (const auto &t : d.terms) {
            if (t.second != 1 && t.second != -1)
                continue;
            // t.coeff * S + rest = 0  =>  S = -rest / t.coeff
            Rate rest = d;
            for (auto it = rest.terms.begin(); it != rest.terms.end();
                 ++it) {
                if (it->first == t.first) {
                    rest.terms.erase(it);
                    break;
                }
            }
            bindings[t.first] = rateScale(rest, t.second == 1 ? -1 : 1);
            return true;
        }
        conflict(node, what, normalize(a), normalize(b), links);
        return false;
    }

    bool
    setLink(int link, const Rate &r, int node, const std::string &what)
    {
        if (link < 0 || link >= static_cast<int>(linkRate.size()))
            return false;
        if (!linkRate[link]) {
            linkRate[link] = r;
            return true;
        }
        if (linkRate[link]->c == r.c && linkRate[link]->terms == r.terms)
            return false; // identical: the difference is zero
        return unify(*linkRate[link], r, node, what, {link});
    }

    void
    addClass(std::vector<int> links, int node)
    {
        if (links.size() < 2)
            return;
        classes.push_back(EqCls{std::move(links), node});
    }

    void
    buildConstraints()
    {
        for (const auto &n : g.nodes) {
            switch (n.kind) {
              case NodeKind::block: {
                std::vector<int> all = n.ins;
                all.insert(all.end(), n.outs.begin(), n.outs.end());
                addClass(std::move(all), n.id);
                break;
              }
              case NodeKind::counter: {
                addClass(n.ins, n.id);
                auto trips = counterTrips(n, vals);
                if (trips && n.ins.size() == 3 && n.outs.size() == 1) {
                    linears.push_back(
                        LinCon{n.outs[0], n.ins[0], *trips, n.id});
                }
                break;
              }
              case NodeKind::broadcast:
                // Output repeats the shallow value per deep element.
                if (n.ins.size() == 2 && n.outs.size() == 1)
                    addClass({n.ins[0], n.outs[0]}, n.id);
                break;
              case NodeKind::reduce:
                break; // one output per group: a fresh unknown
              case NodeKind::flatten:
                if (n.ins.size() == 1 && n.outs.size() == 1)
                    addClass({n.ins[0], n.outs[0]}, n.id);
                break;
              case NodeKind::filter:
                addClass(n.ins, n.id);  // pred + data bundle
                addClass(n.outs, n.id); // kept lanes agree
                break;
              case NodeKind::fwdMerge:
              case NodeKind::fbMerge: {
                size_t half = n.outs.size();
                if (half == 0 || n.ins.size() != 2 * half)
                    break;
                std::vector<int> a(n.ins.begin(),
                                   n.ins.begin() + half);
                std::vector<int> b(n.ins.begin() + half, n.ins.end());
                addClass(std::move(a), n.id);
                addClass(std::move(b), n.id);
                addClass(n.outs, n.id);
                sums.push_back(SumCon{n.outs[0], n.ins[0],
                                      n.ins[half], n.id});
                break;
              }
              case NodeKind::fanout: {
                if (n.ins.size() != 1)
                    break;
                std::vector<int> all = {n.ins[0]};
                all.insert(all.end(), n.outs.begin(), n.outs.end());
                addClass(std::move(all), n.id);
                break;
              }
              case NodeKind::source:
                // The executor seeds every source with exactly one
                // data token (one main() argument or the start token).
                if (n.outs.size() == 1)
                    setLink(n.outs[0], rateConst(1), n.id, "source seed");
                break;
              case NodeKind::sink:
                break;
              case NodeKind::park:
                if (n.ins.size() == 1 && n.outs.size() == 1)
                    addClass({n.ins[0], n.outs[0]}, n.id);
                break;
              case NodeKind::restore:
                // A keyed restore emits one value per ordinal key; a
                // FIFO restore forwards the parked stream.
                if (n.keyed && n.ins.size() == 2 && n.outs.size() == 1)
                    addClass({n.ins[1], n.outs[0]}, n.id);
                else if (!n.keyed && n.ins.size() == 1 &&
                         n.outs.size() == 1)
                    addClass({n.ins[0], n.outs[0]}, n.id);
                break;
              case NodeKind::ordinal:
                if (n.ins.size() == 1 && n.outs.size() == 1)
                    addClass({n.ins[0], n.outs[0]}, n.id);
                break;
            }
        }
    }

    /** Visit the live constraints in order and retire each one @p visit
     * applied (returned true) without a conflict. */
    template <typename C, typename Visit>
    void
    sweepLive(std::vector<C> &live, Visit visit)
    {
        size_t keep = 0;
        for (size_t i = 0; i < live.size(); ++i) {
            const int seen = conflicts;
            if (visit(live[i]) && conflicts == seen)
                continue;
            if (keep != i)
                live[keep] = std::move(live[i]);
            ++keep;
        }
        live.resize(keep);
    }

    bool
    sweep()
    {
        bool changed = false;
        sweepLive(classes, [&](const EqCls &cls) {
            const Rate *known = nullptr;
            for (int l : cls.links) {
                if (l >= 0 && l < static_cast<int>(linkRate.size()) &&
                    linkRate[l]) {
                    known = &*linkRate[l];
                    break;
                }
            }
            if (!known)
                return false;
            Rate want = *known; // copy: setLink may grow linkRate users
            for (int l : cls.links)
                changed |= setLink(l, want, cls.node, "bundle lanes");
            return true;
        });
        sweepLive(linears, [&](const LinCon &lin) {
            if (lin.in < 0 || !linkRate[lin.in])
                return false;
            changed |= setLink(lin.out,
                               rateScale(normalize(*linkRate[lin.in]),
                                         lin.k),
                               lin.node, "counter trip count");
            return true;
        });
        sweepLive(sums, [&](const SumCon &sum) {
            const bool ko = static_cast<bool>(linkRate[sum.out]);
            const bool ka = static_cast<bool>(linkRate[sum.a]);
            const bool kb = static_cast<bool>(linkRate[sum.b]);
            if (ka && kb) {
                changed |= setLink(
                    sum.out,
                    rateAdd(normalize(*linkRate[sum.a]),
                            normalize(*linkRate[sum.b])),
                    sum.node, "merge conservation");
            } else if (ko && ka) {
                changed |= setLink(
                    sum.b,
                    rateSub(normalize(*linkRate[sum.out]),
                            normalize(*linkRate[sum.a])),
                    sum.node, "merge conservation");
            } else if (ko && kb) {
                changed |= setLink(
                    sum.a,
                    rateSub(normalize(*linkRate[sum.out]),
                            normalize(*linkRate[sum.b])),
                    sum.node, "merge conservation");
            } else {
                return false;
            }
            return true;
        });
        return changed;
    }

    /** Introduce a fresh symbol for the first still-unknown link, named
     * after its producer (c=counter, f=filter, r=reduce, m=merge). */
    bool
    bindUnknown()
    {
        for (size_t l = 0; l < linkRate.size(); ++l) {
            if (linkRate[l])
                continue;
            int src = g.links[l].src;
            char prefix = 'x';
            int tag = static_cast<int>(l);
            if (src >= 0 && src < static_cast<int>(g.nodes.size())) {
                switch (g.nodes[src].kind) {
                  case NodeKind::counter: prefix = 'c'; tag = src; break;
                  case NodeKind::filter: prefix = 'f'; tag = src; break;
                  case NodeKind::reduce: prefix = 'r'; tag = src; break;
                  case NodeKind::fbMerge:
                  case NodeKind::fwdMerge: prefix = 'm'; tag = src; break;
                  default: break;
                }
            }
            linkRate[l] = rateSym(
                newSym(std::string(1, prefix) + std::to_string(tag)));
            return true;
        }
        return false;
    }

    void
    solve()
    {
        buildConstraints();
        const int cap =
            static_cast<int>(g.links.size()) * 4 + 64;
        for (int iter = 0; iter < cap; ++iter) {
            if (sweep())
                continue;
            if (!bindUnknown())
                break;
        }
    }

    RateReport
    report() const
    {
        RateReport out;
        out.linkRates.reserve(linkRate.size());
        for (const auto &r : linkRate)
            out.linkRates.push_back(r ? render(*r) : std::string("?"));
        out.diagnostics = diags;
        out.consistent = consistent;
        return out;
    }
};

/** The structural discipline Dfg::verify() does not see (it owns
 * arity, wiring and park/restore pairing, and has already passed on
 * @p g): park machinery outside region interiors, bundle element
 * widths, region membership, and keyed ordinal coverage. */
void
structuralChecks(const Dfg &g, std::vector<Diagnostic> &out)
{
    auto emit = [&](const std::string &code, const std::string &msg,
                    std::vector<int> nodes, std::vector<int> links) {
        Diagnostic d;
        d.analysis = "validate";
        d.code = code;
        d.severity = Diagnostic::Severity::error;
        d.message = msg;
        d.nodes = std::move(nodes);
        d.links = std::move(links);
        out.push_back(std::move(d));
    };

    const int n_nodes = static_cast<int>(g.nodes.size());

    for (const Node &n : g.nodes) {
        // Park machinery is boundary equipment: it buffers *around* a
        // region and must never be placed inside one.
        if ((n.kind == NodeKind::park || n.kind == NodeKind::restore ||
             n.kind == NodeKind::ordinal) &&
            n.replicateRegion >= 0) {
            emit("region-boundary",
                 nodeRef(g, n.id) + " serves region " +
                     std::to_string(n.parkRegion) +
                     " but sits inside region " +
                     std::to_string(n.replicateRegion),
                 {n.id}, {});
        }
        // Bundle element-width consistency: filter lanes and merge
        // lanes must carry the same element type end to end (the
        // sub-word packing invariant).
        if (n.kind == NodeKind::filter) {
            for (size_t j = 0; j < n.outs.size(); ++j) {
                if (g.links[n.ins[j + 1]].elem != g.links[n.outs[j]].elem) {
                    emit("bundle-elem",
                         "filter " + nodeRef(g, n.id) + " lane " +
                             std::to_string(j) +
                             " changes element type across the bundle",
                         {n.id}, {n.ins[j + 1], n.outs[j]});
                }
            }
        }
        if (n.kind == NodeKind::fwdMerge || n.kind == NodeKind::fbMerge) {
            size_t half = n.outs.size();
            for (size_t j = 0; j < half; ++j) {
                int la = n.ins[j], lb = n.ins[j + half], lo = n.outs[j];
                if (g.links[la].elem != g.links[lo].elem ||
                    g.links[lb].elem != g.links[lo].elem) {
                    emit("bundle-elem",
                         "merge " + nodeRef(g, n.id) + " lane " +
                             std::to_string(j) +
                             " changes element type across the bundle",
                         {n.id}, {la, lb, lo});
                }
            }
        }
    }

    // ReplicateInfo::nodeIds must agree with Node::replicateRegion in
    // both directions.
    for (const auto &info : g.replicates) {
        std::set<int> members(info.nodeIds.begin(), info.nodeIds.end());
        for (int id : members) {
            if (id < 0 || id >= n_nodes ||
                g.nodes[id].replicateRegion != info.id) {
                emit("region-membership",
                     "region " + std::to_string(info.id) + " lists " +
                         nodeRef(g, id) +
                         " as a member but the node disagrees",
                     {id}, {});
            }
        }
        for (const Node &n : g.nodes) {
            if (n.replicateRegion == info.id && !members.count(n.id)) {
                emit("region-membership",
                     nodeRef(g, n.id) + " claims region " +
                         std::to_string(info.id) +
                         " membership but the region does not list it",
                     {n.id}, {});
            }
        }
    }

    // Keyed parking needs its ordinal lane: an ordinal-keyed restore
    // without a thread-enumerating ordinal node for the region can
    // never be fed keys.
    std::map<int, std::vector<int>> keyedParks;
    std::set<int> ordinalRegions;
    for (const Node &n : g.nodes) {
        if (n.kind == NodeKind::park && n.keyed)
            keyedParks[n.parkRegion].push_back(n.id);
        if (n.kind == NodeKind::ordinal)
            ordinalRegions.insert(n.parkRegion);
    }
    for (const auto &kv : keyedParks) {
        if (!ordinalRegions.count(kv.first)) {
            emit("ordinal-missing",
                 "region " + std::to_string(kv.first) + " has " +
                     std::to_string(kv.second.size()) +
                     " ordinal-keyed park(s) but no ordinal node "
                     "enumerating its threads",
                 kv.second, {});
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

std::string
Diagnostic::json() const
{
    std::string out = "{\"analysis\":\"" + jsonEscape(analysis) +
        "\",\"code\":\"" + jsonEscape(code) + "\",\"severity\":\"" +
        (severity == Severity::error ? "error" : "warning") +
        "\",\"message\":\"" + jsonEscape(message) + "\",\"nodes\":" +
        idArray(nodes) + ",\"links\":" + idArray(links) + "}";
    return out;
}

bool
hasErrors(const std::vector<Diagnostic> &diags)
{
    for (const auto &d : diags)
        if (d.severity == Diagnostic::Severity::error)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------

TokenAccount
accountTokens(const Dfg &dfg)
{
    TokenAccount acc;
    for (const Node &n : dfg.nodes) {
        switch (n.kind) {
          case NodeKind::source:
            acc.sources.push_back(n.name);
            break;
          case NodeKind::block:
            for (const auto &op : n.ops) {
                std::string key = effectKey(op);
                if (!key.empty()) {
                    ++acc.effects[key];
                    acc.effectNodes[key].push_back(n.id);
                }
            }
            break;
          case NodeKind::park:
            if (n.keyed)
                ++acc.parks[n.parkRegion].keyedParks;
            else
                ++acc.parks[n.parkRegion].fifoParks;
            break;
          case NodeKind::restore:
            if (n.keyed)
                ++acc.parks[n.parkRegion].keyedRestores;
            else
                ++acc.parks[n.parkRegion].fifoRestores;
            break;
          case NodeKind::ordinal:
            ++acc.parks[n.parkRegion].ordinals;
            break;
          default:
            break;
        }
    }
    return acc;
}

PassPermissions
permissionsFor(const std::string &passName)
{
    PassPermissions p;
    if (passName == "const-fold") {
        // Folds guards to constant false and removes the dead effect.
        p.dropEffects = true;
    } else if (passName == "cross-block-const-prop") {
        // Strips effects from blocks the abstract interpreter proves
        // can never receive a data bundle.
        p.dropEffects = true;
    } else if (passName == "dead-node-elim") {
        // Prunes park/restore pairs (and their ordinal lanes) whose
        // value is never consumed.
        p.dropParks = true;
    } else if (passName == "replicate-bufferize") {
        // Creates the park/restore/ordinal machinery.
        p.addParks = true;
    }
    return p;
}

std::vector<Diagnostic>
validateRewrite(const std::string &passName, const TokenAccount &before,
                const Dfg &after)
{
    return validateRewrite(passName, before, after, accountTokens(after),
                           analyzeValues(after));
}

std::vector<Diagnostic>
validateRewrite(const std::string &passName, const TokenAccount &before,
                const Dfg &after, const TokenAccount &now,
                const AbsintReport &vals)
{
    std::vector<Diagnostic> out;
    const PassPermissions perm = permissionsFor(passName);

    auto emit = [&](const std::string &code, const std::string &msg,
                    std::vector<int> nodes) {
        Diagnostic d;
        d.analysis = "validate";
        d.code = code;
        d.severity = Diagnostic::Severity::error;
        d.message = "pass '" + passName + "': " + msg;
        d.nodes = std::move(nodes);
        out.push_back(std::move(d));
    };

    // Program-entry sources: the executor binds main() arguments to
    // sources positionally, so the ordered name list is inviolable.
    if (now.sources != before.sources) {
        std::vector<int> ids;
        for (const Node &n : after.nodes)
            if (n.kind == NodeKind::source)
                ids.push_back(n.id);
        auto joined = [](const std::vector<std::string> &v) {
            std::string s;
            for (const auto &e : v)
                s += (s.empty() ? "" : ",") + e;
            return s.empty() ? std::string("<none>") : s;
        };
        emit("source-changed",
             "program-entry sources changed from [" +
                 joined(before.sources) + "] to [" +
                 joined(now.sources) + "]",
             std::move(ids));
    }

    // Memory-effect conservation.
    std::set<std::string> keys;
    for (const auto &kv : before.effects)
        keys.insert(kv.first);
    for (const auto &kv : now.effects)
        keys.insert(kv.first);
    for (const auto &key : keys) {
        auto bit = before.effects.find(key);
        auto nit = now.effects.find(key);
        int b = bit == before.effects.end() ? 0 : bit->second;
        int a = nit == now.effects.end() ? 0 : nit->second;
        if (a > b) {
            auto nn = now.effectNodes.find(key);
            emit("effect-added",
                 "invented " + std::to_string(a - b) + " '" + key +
                     "' effect(s) (" + std::to_string(b) + " -> " +
                     std::to_string(a) + ")",
                 nn == now.effectNodes.end() ? std::vector<int>{}
                                             : nn->second);
        } else if (a < b && !perm.dropEffects) {
            auto bn = before.effectNodes.find(key);
            emit("effect-dropped",
                 "dropped " + std::to_string(b - a) + " '" + key +
                     "' effect(s) (" + std::to_string(b) + " -> " +
                     std::to_string(a) +
                     "); pre-rewrite carrier nodes listed",
                 bn == before.effectNodes.end() ? std::vector<int>{}
                                                : bn->second);
        }
    }

    // Park/restore/ordinal census per region.
    std::set<int> regions;
    for (const auto &kv : before.parks)
        regions.insert(kv.first);
    for (const auto &kv : now.parks)
        regions.insert(kv.first);
    for (int r : regions) {
        static const TokenAccount::RegionParks zero;
        auto bit = before.parks.find(r);
        auto nit = now.parks.find(r);
        const auto &b = bit == before.parks.end() ? zero : bit->second;
        const auto &a = nit == now.parks.end() ? zero : nit->second;
        std::vector<int> ids;
        for (const Node &n : after.nodes) {
            if ((n.kind == NodeKind::park ||
                 n.kind == NodeKind::restore ||
                 n.kind == NodeKind::ordinal) &&
                n.parkRegion == r)
                ids.push_back(n.id);
        }
        auto census = [](const TokenAccount::RegionParks &c) {
            return std::to_string(c.fifoParks) + " fifo / " +
                std::to_string(c.keyedParks) + " keyed park(s), " +
                std::to_string(c.ordinals) + " ordinal(s)";
        };
        bool grew = a.fifoParks > b.fifoParks ||
            a.keyedParks > b.keyedParks || a.ordinals > b.ordinals;
        bool shrank = a.fifoParks < b.fifoParks ||
            a.keyedParks < b.keyedParks || a.ordinals < b.ordinals;
        if (grew && !perm.addParks) {
            emit("park-added",
                 "added park machinery for region " + std::to_string(r) +
                     " (" + census(b) + " -> " + census(a) + ")",
                 ids);
        }
        if (shrank && !perm.dropParks) {
            emit("park-dropped",
                 "removed park machinery for region " +
                     std::to_string(r) + " (" + census(b) + " -> " +
                     census(a) + ")",
                 ids);
        }
    }

    // Structural discipline of the rewritten graph.
    structuralChecks(after, out);

    // Token-rate balance must still hold.
    RateReport rates = analyzeRates(after, vals);
    for (auto &d : rates.diagnostics)
        out.push_back(std::move(d));

    return out;
}

ValidationError::ValidationError(std::string passName,
                                 std::vector<Diagnostic> diagnostics)
    : std::logic_error([&] {
          std::string msg =
              "translation validation failed after pass '" + passName +
              "':";
          for (const auto &d : diagnostics) {
              if (d.severity == Diagnostic::Severity::error)
                  msg += "\n  [" + d.code + "] " + d.message;
          }
          return msg;
      }()),
      pass_(std::move(passName)), diags_(std::move(diagnostics))
{
}

// ---------------------------------------------------------------------
// Token-rate balance
// ---------------------------------------------------------------------

std::string
RateReport::rate(int id) const
{
    if (id < 0 || id >= static_cast<int>(linkRates.size()))
        return "?";
    return linkRates[id];
}

RateReport
analyzeRates(const Dfg &dfg)
{
    return analyzeRates(dfg, analyzeValues(dfg));
}

RateReport
analyzeRates(const Dfg &dfg, const AbsintReport &vals)
{
    RateSolver solver(dfg, vals);
    solver.solve();
    return solver.report();
}

// ---------------------------------------------------------------------
// Finite-buffer deadlock lint
// ---------------------------------------------------------------------

BufferCaps
BufferCaps::fromMachine(const sim::MachineConfig &machine)
{
    BufferCaps caps;
    caps.vectorWords = machine.vecBufferWords;
    caps.scalarWords = machine.scalBufferWords;
    caps.parkSlots = machine.parkBankWords();
    return caps;
}

DeadlockReport
lintDeadlock(const Dfg &dfg, const BufferCaps &caps)
{
    return lintDeadlock(dfg, caps, analyzeValues(dfg));
}

namespace
{

/** The deadlock lint over @p solver's finished rates for @p dfg. */
DeadlockReport
deadlockReport(const Dfg &dfg, const BufferCaps &caps,
               const RateSolver &solver)
{
    DeadlockReport rep;

    auto constRate = [&](int link) -> std::optional<long long> {
        if (link < 0 || link >= static_cast<int>(solver.linkRate.size()) ||
            !solver.linkRate[link])
            return std::nullopt;
        Rate r = solver.normalize(*solver.linkRate[link]);
        if (!r.isConst())
            return std::nullopt;
        return r.c;
    };
    auto renderRate = [&](int link) {
        if (link < 0 || link >= static_cast<int>(solver.linkRate.size()) ||
            !solver.linkRate[link])
            return std::string("?");
        return solver.render(*solver.linkRate[link]);
    };

    // Minimal safe SRAM park sizes: a park must hold every value that
    // enters it before the matching restore drains (worst case, all of
    // them — the reordering region can emit its threads in any order).
    for (const Node &n : dfg.nodes) {
        if (n.kind != NodeKind::park || n.ins.size() != 1 ||
            n.outs.size() != 1)
            continue;
        ParkDemand pd;
        pd.park = n.id;
        pd.region = n.parkRegion;
        int dst = n.outs[0] >= 0 &&
                n.outs[0] < static_cast<int>(dfg.links.size())
            ? dfg.links[n.outs[0]].dst
            : -1;
        pd.restore = dst;
        pd.rate = renderRate(n.ins[0]);
        if (auto c = constRate(n.ins[0])) {
            pd.bounded = true;
            pd.minSafeSlots = *c;
            if (*c > caps.parkSlots) {
                Diagnostic d;
                d.analysis = "deadlock";
                d.code = "park-undersized";
                d.severity = Diagnostic::Severity::error;
                d.message = "park " + nodeRef(dfg, n.id) +
                    " needs " + std::to_string(*c) +
                    " slots in the worst case but one MU bank holds " +
                    std::to_string(caps.parkSlots);
                d.nodes = {n.id, dst};
                d.links = {n.ins[0]};
                rep.diagnostics.push_back(std::move(d));
            }
        } else {
            Diagnostic d;
            d.analysis = "deadlock";
            d.code = "park-unbounded";
            d.severity = Diagnostic::Severity::warning;
            d.message = "park " + nodeRef(dfg, n.id) +
                " has data-dependent demand " + pd.rate +
                " against a " + std::to_string(caps.parkSlots) +
                "-slot MU bank";
            d.nodes = {n.id, dst};
            d.links = {n.ins[0]};
            rep.diagnostics.push_back(std::move(d));
        }
        rep.parks.push_back(std::move(pd));
    }

    // Cycle enumeration over the channel graph (one cycle per DFS back
    // edge) and per-cycle buffering balance: the tokens a contraction
    // node must absorb before producing cannot exceed what the cycle's
    // link buffers can hold, or the cycle wedges.
    const int n_nodes = static_cast<int>(dfg.nodes.size());
    std::vector<int> color(n_nodes, 0); // 0 white, 1 gray, 2 black
    std::vector<int> viaLink(n_nodes, -1);
    std::vector<int> parent(n_nodes, -1);
    const size_t maxCycles = 64;

    for (int root = 0; root < n_nodes; ++root) {
        if (color[root] != 0)
            continue;
        std::vector<std::pair<int, size_t>> stack{{root, 0}};
        color[root] = 1;
        while (!stack.empty()) {
            auto &[u, ei] = stack.back();
            const Node &nu = dfg.nodes[u];
            if (ei >= nu.outs.size()) {
                color[u] = 2;
                stack.pop_back();
                continue;
            }
            int l = nu.outs[ei++];
            if (l < 0 || l >= static_cast<int>(dfg.links.size()))
                continue;
            int v = dfg.links[l].dst;
            if (v < 0 || v >= n_nodes)
                continue;
            if (color[v] == 0) {
                color[v] = 1;
                parent[v] = u;
                viaLink[v] = l;
                stack.push_back({v, 0});
            } else if (color[v] == 1 && rep.cycles.size() < maxCycles) {
                // Back edge u -> v: unwind the tree path v..u.
                ChannelCycle cyc;
                std::vector<int> path;
                for (int w = u; w != v && w >= 0; w = parent[w])
                    path.push_back(w);
                path.push_back(v);
                std::reverse(path.begin(), path.end());
                cyc.nodes = path;
                for (size_t i = 1; i < path.size(); ++i)
                    cyc.links.push_back(viaLink[path[i]]);
                cyc.links.push_back(l);
                for (int cl : cyc.links) {
                    cyc.capacityWords += dfg.links[cl].vector
                        ? caps.vectorWords
                        : caps.scalarWords;
                }
                for (int w : cyc.nodes) {
                    const Node &nw = dfg.nodes[w];
                    if (nw.kind != NodeKind::reduce || nw.ins.empty())
                        continue;
                    // A reduce absorbs a whole group before emitting:
                    // resident demand is the group (input) rate.
                    if (auto c = constRate(nw.ins[0]))
                        cyc.demandWords = std::max(
                            cyc.demandWords, static_cast<long>(*c));
                    else
                        cyc.bounded = false;
                }
                bool risky = !cyc.bounded ||
                    cyc.demandWords > cyc.capacityWords;
                if (risky) {
                    ++rep.riskyCycles;
                    Diagnostic d;
                    d.analysis = "deadlock";
                    d.code = cyc.bounded ? "cycle-overflow"
                                         : "cycle-unbounded";
                    d.severity = cyc.bounded
                        ? Diagnostic::Severity::error
                        : Diagnostic::Severity::warning;
                    d.message = cyc.bounded
                        ? "cycle through " + nodeRef(dfg, cyc.nodes[0]) +
                            " needs " + std::to_string(cyc.demandWords) +
                            " resident words but its links buffer only " +
                            std::to_string(cyc.capacityWords)
                        : "cycle through " + nodeRef(dfg, cyc.nodes[0]) +
                            " has data-dependent buffering demand "
                            "against " +
                            std::to_string(cyc.capacityWords) +
                            " words of link buffering";
                    d.nodes = cyc.nodes;
                    d.links = cyc.links;
                    rep.diagnostics.push_back(std::move(d));
                }
                rep.cycles.push_back(std::move(cyc));
            }
        }
    }
    return rep;
}

} // namespace

DeadlockReport
lintDeadlock(const Dfg &dfg, const BufferCaps &caps,
             const AbsintReport &vals)
{
    RateSolver solver(dfg, vals);
    solver.solve();
    return deadlockReport(dfg, caps, solver);
}

// ---------------------------------------------------------------------
// Combined driver
// ---------------------------------------------------------------------

std::vector<Diagnostic>
AnalyzeReport::all() const
{
    std::vector<Diagnostic> out = rates.diagnostics;
    out.insert(out.end(), deadlock.diagnostics.begin(),
               deadlock.diagnostics.end());
    out.insert(out.end(), values.begin(), values.end());
    return out;
}

bool
AnalyzeReport::hasErrors() const
{
    return graph::hasErrors(rates.diagnostics) ||
        graph::hasErrors(deadlock.diagnostics) ||
        graph::hasErrors(values);
}

std::string
AnalyzeReport::summary() const
{
    int boundedParks = 0;
    for (const auto &p : deadlock.parks)
        boundedParks += p.bounded;
    std::ostringstream oss;
    oss << "rates " << (rates.consistent ? "consistent" : "INCONSISTENT")
        << " over " << rates.linkRates.size() << " links; "
        << deadlock.cycles.size() << " cycle(s), " << deadlock.riskyCycles
        << " risky; " << deadlock.parks.size() << " park(s), "
        << boundedParks << " bounded";
    return oss.str();
}

AnalyzeReport
analyzeGraph(const Dfg &dfg, const sim::MachineConfig &machine)
{
    AnalyzeReport rep;
    // One abstract-interpretation fixpoint feeds rate analysis (counter
    // trip counts), the deadlock lint, and the value-range lints; one
    // rate solve feeds both the rate report and the deadlock lint.
    const AbsintReport vals = analyzeValues(dfg);
    RateSolver solver(dfg, vals);
    solver.solve();
    rep.rates = solver.report();
    rep.deadlock =
        deadlockReport(dfg, BufferCaps::fromMachine(machine), solver);
    rep.values = lintValues(dfg, vals);
    return rep;
}

} // namespace graph
} // namespace revet
