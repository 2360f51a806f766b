/**
 * @file
 * The streaming primitives of Section III-B, token by token: builds the
 * paper's Figure 4 while-loop network by hand and prints the SLTF
 * streams on every link, in both explicit and wire (implied-barrier)
 * encodings.
 */

#include <cstdio>

#include "dataflow/engine.hh"
#include "sltf/codec.hh"

using namespace revet::dataflow;
using revet::sltf::StreamBuilder;
using revet::sltf::TokenStream;
using revet::sltf::Word;

int
main()
{
    // Threads t1..t4 iterate 2,3,1,3 times (Figure 4).
    Engine e;
    auto *fid = e.channel("A.id");
    auto *fcnt = e.channel("A.cnt");
    e.make<Source>("idSrc", fid, StreamBuilder().d(1).d(2).d(3).d(4).b(1));
    e.make<Source>("cntSrc", fcnt,
                   StreamBuilder().d(2).d(3).d(1).d(3).b(1));

    auto *mid = e.channel("B.id");
    auto *mcnt = e.channel("B.cnt");
    auto *bid = e.channel("C.id");
    auto *bcnt = e.channel("C.cnt");
    e.make<FwdBackMerge>("head", Bundle{fid, fcnt}, Bundle{bid, bcnt},
                         Bundle{mid, mcnt});

    auto *tap = e.channel("tap");
    auto *body = e.channel("body");
    e.multicast(mid, {tap, body});
    auto *bsink = e.make<Sink>("B", tap);

    Bundle outs;
    for (int i = 0; i < 6; ++i)
        outs.push_back(e.channel("o" + std::to_string(i)));
    e.make<ElementWise>(
        "dec", Bundle{body, mcnt}, outs,
        [](const LaneRun &run) {
            for (size_t t = 0; t < run.n; ++t) {
                const Word id = run.in[0][t];
                const Word c = run.in[1][t] - 1;
                const Word cont = static_cast<int32_t>(c) > 0;
                const Word lanes[] = {id, c, cont, id, c, cont};
                for (size_t j = 0; j < 6; ++j)
                    run.out[j][t] = lanes[j];
            }
        });
    e.make<Filter>("back", outs[2], Bundle{outs[0], outs[1]},
                   Bundle{bid, bcnt}, true);
    auto *xid = e.channel("X.id");
    auto *xcnt = e.channel("X.cnt");
    e.make<Filter>("exit", outs[5], Bundle{outs[3], outs[4]},
                   Bundle{xid, xcnt}, false);
    auto *did = e.channel("D.id");
    auto *dcnt = e.channel("D.cnt");
    e.make<Flatten>("strip.id", xid, did);
    e.make<Flatten>("strip.cnt", xcnt, dcnt);
    auto *dsink = e.make<Sink>("D", did);
    e.make<Sink>("Dcnt", dcnt);

    e.run();

    TokenStream b = bsink->collected();
    TokenStream d = dsink->collected();
    std::printf("Figure 4 forward-backward merge (while loop):\n");
    std::printf("B (loop body), explicit: %s\n",
                revet::sltf::toString(b).c_str());
    std::printf("B (loop body), wire:     %s\n",
                revet::sltf::toString(revet::sltf::compress(b)).c_str());
    std::printf("D (loop exit), explicit: %s\n",
                revet::sltf::toString(d).c_str());
    std::printf("Matches the paper: B = t1..t4,O1 | t1,t2,t4,O1 | "
                "t2,t4,O1 | O2;  D = t3,t1,t2,t4,O1\n");
    return 0;
}
