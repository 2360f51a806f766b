#include "apps/apps.hh"

#include <algorithm>
#include <random>
#include <sstream>
#include <stdexcept>

namespace revet
{
namespace apps
{

using lang::DramImage;

int
App::sourceLines() const
{
    int lines = 0;
    bool content = false;
    for (char c : source) {
        if (c == '\n') {
            if (content)
                ++lines;
            content = false;
        } else if (!isspace(static_cast<unsigned char>(c))) {
            content = true;
        }
    }
    return lines + (content ? 1 : 0);
}

std::string
App::verify(DramImage &dram, int scale) const
{
    DramImage expect = dram;
    const std::vector<int32_t> args = generate(expect, scale);
    reference(expect, args, 0, static_cast<uint64_t>(args[0]));
    for (int r = 0; r < dram.dramCount(); ++r) {
        const std::vector<uint8_t> &want = expect.bytes(r);
        const std::vector<uint8_t> &got = dram.bytes(r);
        std::ostringstream os;
        if (got.size() != want.size()) {
            os << dram.name(r) << ": " << got.size()
               << " bytes, expected " << want.size();
            return os.str();
        }
        const auto diff = std::mismatch(want.begin(), want.end(),
                                        got.begin());
        if (diff.first != want.end()) {
            // Report the element in the region's own width and sign.
            const lang::Scalar elem = dram.elemType(r);
            const uint64_t at =
                static_cast<uint64_t>(diff.first - want.begin()) /
                static_cast<uint64_t>(lang::dramElemBytes(elem));
            auto value = [&](const DramImage &img) {
                const uint32_t v = img.load(r, at);
                return lang::isSigned(elem)
                    ? std::to_string(static_cast<int32_t>(v))
                    : std::to_string(v);
            };
            os << dram.name(r) << " element " << at << ": expected "
               << value(expect) << ", got " << value(dram);
            return os.str();
        }
    }
    return "";
}

namespace
{

/** Region @p name of @p dram as an array of T: the reference kernels'
 * raw view. Regions are heap buffers, so any element type is aligned,
 * and DramImage itself touches them only as bytes. */
template <typename T>
T *
region(DramImage &dram, const char *name)
{
    return reinterpret_cast<T *>(dram.bytes(name).data());
}

// ---- isipv4 ---------------------------------------------------------------

const char *isipv4Src = R"(
DRAM<char> text;
DRAM<int> valid;

void main(int count) {
  foreach (count) { int t =>
    pragma(eliminate_hierarchy);
    int ok = 1;
    int groups = 0;
    int digits = 0;
    int acc = 0;
    replicate (2) {
      ReadIt<16> it(text, t * 16);
      int i = 0;
      int go = 1;
      while (go == 1) {
        int c = *it;
        it++;
        i++;
        if (c == 0) {
          go = 0;
        } else {
          if (c >= 48 && c <= 57) {
            digits = digits + 1;
            acc = acc * 10 + (c - 48);
            if (digits > 3) { ok = 0; };
            if (acc > 255) { ok = 0; };
          } else {
            if (c == 46) {
              if (digits == 0) { ok = 0; };
              groups = groups + 1;
              acc = 0;
              digits = 0;
            } else {
              ok = 0;
            };
          };
        };
        if (i >= 16) { go = 0; };
      };
    };
    if (groups != 3) { ok = 0; };
    if (digits == 0) { ok = 0; };
    valid[t] = ok;
  };
}
)";

std::string
makeIpRecord(std::mt19937 &rng, bool valid)
{
    if (!valid)
        return "INVALID";
    std::ostringstream os;
    os << rng() % 256 << "." << rng() % 256 << "." << rng() % 256 << "."
       << rng() % 256;
    return os.str();
}

App
makeIsipv4()
{
    App app;
    app.name = "isipv4";
    app.description = "DFA regex";
    app.dataset = "90% valid addresses, 10% 'INVALID'";
    app.keyFeatures = "replicate (x2)";
    app.source = isipv4Src;
    app.replicateFactor = 2;
    app.generate = [](DramImage &dram, int scale) {
        std::mt19937 rng(101);
        std::vector<int8_t> text(16 * scale, 0);
        for (int t = 0; t < scale; ++t) {
            std::string rec = makeIpRecord(rng, rng() % 10 != 0);
            for (size_t k = 0; k < rec.size() && k < 15; ++k)
                text[t * 16 + k] = rec[k];
        }
        dram.fill("text", text);
        dram.resize("valid", scale);
        return std::vector<int32_t>{scale};
    };
    app.reference = [](DramImage &dram, const std::vector<int32_t> &,
                       uint64_t lo, uint64_t hi) {
        const int8_t *text = region<int8_t>(dram, "text");
        int32_t *valid = region<int32_t>(dram, "valid");
        for (uint64_t t = lo; t < hi; ++t) {
            const int8_t *rec = text + t * 16;
            int groups = 0, digits = 0;
            uint32_t acc = 0;
            bool ok = true;
            for (int i = 0; i < 16 && rec[i] != 0; ++i) {
                const int c = rec[i];
                if (c >= '0' && c <= '9') {
                    ++digits;
                    acc = acc * 10 + (c - '0');
                    if (digits > 3 || acc > 255)
                        ok = false;
                } else if (c == '.') {
                    if (digits == 0)
                        ok = false;
                    ++groups;
                    digits = 0;
                    acc = 0;
                } else {
                    ok = false;
                }
            }
            valid[t] = ok && groups == 3 && digits > 0;
        }
    };
    app.accountedBytes = [](int scale) {
        return static_cast<uint64_t>(scale) * (16 + 4);
    };
    app.dramOverfetch = 1.6;
    app.gpu = {13, 60, 1, true, 1, 0};
    app.gpu.divergence = 21;
    app.paper = {34, 443, 121, 7.3, 1.04, 1.07, 1.18, 83.0, 0.5};
    return app;
}

// ---- ip2int ---------------------------------------------------------------

const char *ip2intSrc = R"(
DRAM<char> text;
DRAM<uint> packed;

void main(int count) {
  foreach (count) { int t =>
    pragma(eliminate_hierarchy);
    int value = 0;
    int acc = 0;
    replicate (2) {
      ReadIt<16> it(text, t * 16);
      int i = 0;
      int go = 1;
      while (go == 1) {
        int c = *it;
        it++;
        i++;
        if (c == 0) {
          go = 0;
        } else {
          if (c == 46) {
            value = value * 256 + acc;
            acc = 0;
          } else {
            acc = acc * 10 + (c - 48);
          };
        };
        if (i >= 16) { go = 0; };
      };
    };
    value = value * 256 + acc;
    packed[t] = value;
  };
}
)";

App
makeIp2int()
{
    App app;
    app.name = "ip2int";
    app.description = "Parsing";
    app.dataset = "Random IPv4 addresses";
    app.keyFeatures = "replicate (x2)";
    app.source = ip2intSrc;
    app.replicateFactor = 2;
    app.generate = [](DramImage &dram, int scale) {
        std::mt19937 rng(202);
        std::vector<int8_t> text(16 * scale, 0);
        for (int t = 0; t < scale; ++t) {
            std::string rec = makeIpRecord(rng, true);
            for (size_t k = 0; k < rec.size() && k < 15; ++k)
                text[t * 16 + k] = rec[k];
        }
        dram.fill("text", text);
        dram.resize("packed", scale);
        return std::vector<int32_t>{scale};
    };
    app.reference = [](DramImage &dram, const std::vector<int32_t> &,
                       uint64_t lo, uint64_t hi) {
        const int8_t *text = region<int8_t>(dram, "text");
        uint32_t *packed = region<uint32_t>(dram, "packed");
        for (uint64_t t = lo; t < hi; ++t) {
            const int8_t *rec = text + t * 16;
            uint32_t value = 0, acc = 0;
            for (int i = 0; i < 16 && rec[i] != 0; ++i) {
                if (rec[i] == '.') {
                    value = value * 256 + acc;
                    acc = 0;
                } else {
                    acc = acc * 10 + (rec[i] - '0');
                }
            }
            packed[t] = value * 256 + acc;
        }
    };
    app.accountedBytes = [](int scale) {
        return static_cast<uint64_t>(scale) * (16 + 4);
    };
    app.dramOverfetch = 1.6;
    app.gpu = {13, 55, 1, true, 1, 0};
    app.gpu.divergence = 7.5;
    app.paper = {41, 508, 381, 9.1, 1.42, 1.03, 1.55, 68.5, 13.1};
    return app;
}

// ---- murmur3 --------------------------------------------------------------

const char *murmur3Src = R"(
DRAM<int> blobs;
DRAM<uint> hashes;

void main(int count) {
  foreach (count) { int t =>
    pragma(eliminate_hierarchy);
    ReadIt<16> it(blobs, t * 16);
    uint h = 0x9747b28c;
    int i = 0;
    while (i < 16) {
      uint k = *it;
      it++;
      k = k * 0xcc9e2d51;
      k = (k << 15) | (k >> 17);
      k = k * 0x1b873593;
      h = h ^ k;
      h = (h << 13) | (h >> 19);
      h = h * 5 + 0xe6546b64;
      i++;
    };
    h = h ^ 64;
    h = h ^ (h >> 16);
    h = h * 0x85ebca6b;
    h = h ^ (h >> 13);
    h = h * 0xc2b2ae35;
    h = h ^ (h >> 16);
    hashes[t] = h;
  };
}
)";

App
makeMurmur3()
{
    App app;
    app.name = "murmur3";
    app.description = "Data hashing";
    app.dataset = "64 B blobs";
    app.keyFeatures = "ReadIt";
    app.source = murmur3Src;
    app.generate = [](DramImage &dram, int scale) {
        std::mt19937 rng(303);
        std::vector<int32_t> blobs(16 * scale);
        for (auto &w : blobs)
            w = static_cast<int32_t>(rng());
        dram.fill("blobs", blobs);
        dram.resize("hashes", scale);
        return std::vector<int32_t>{scale};
    };
    app.reference = [](DramImage &dram, const std::vector<int32_t> &,
                       uint64_t lo, uint64_t hi) {
        const uint32_t *blobs = region<uint32_t>(dram, "blobs");
        uint32_t *hashes = region<uint32_t>(dram, "hashes");
        for (uint64_t t = lo; t < hi; ++t) {
            uint32_t h = 0x9747b28cu;
            for (int i = 0; i < 16; ++i) {
                uint32_t k = blobs[t * 16 + i] * 0xcc9e2d51u;
                k = (k << 15) | (k >> 17);
                k *= 0x1b873593u;
                h ^= k;
                h = (h << 13) | (h >> 19);
                h = h * 5 + 0xe6546b64u;
            }
            h ^= 64;
            h ^= h >> 16;
            h *= 0x85ebca6bu;
            h ^= h >> 13;
            h *= 0xc2b2ae35u;
            h ^= h >> 16;
            hashes[t] = h;
        }
    };
    app.accountedBytes = [](int scale) {
        return static_cast<uint64_t>(scale) * (64 + 4);
    };
    app.gpu = {64, 180, 2, false, 1, 0};
    app.gpu.divergence = 14;
    app.paper = {62, 628, 218, 122.2, 1.55, 1.07, 2.37, 73.9, 4.1};
    return app;
}

// ---- hash-table -----------------------------------------------------------

const char *hashTableSrc = R"(
DRAM<int> keys;
DRAM<int> table;
DRAM<int> found;

void main(int count, int slots) {
  foreach (count) { int t =>
    pragma(eliminate_hierarchy);
    ReadIt<16> kit(keys, t * 16);
    WriteIt<16> res(found, t * 16);
    int i = 0;
    while (i < 16) {
      int key = *kit;
      kit++;
      uint uh = key;
      uh = uh * 2654435761;
      int h = uh % slots;
      int value = 0 - 1;
      int probes = 0;
      int go = 1;
      while (go == 1) {
        int stored = table[h * 2];
        if (stored == 0) { go = 0; };
        if (stored == key) {
          value = table[h * 2 + 1];
          go = 0;
        };
        h = h + 1;
        if (h >= slots) { h = 0; };
        probes++;
        if (probes >= slots) { go = 0; };
      };
      *res = value;
      res++;
      i++;
    };
  };
}
)";

struct HashFixture
{
    std::vector<int32_t> keys;
    std::vector<int32_t> table;
    int slots;
};

HashFixture
buildHashFixture(int scale)
{
    HashFixture fx;
    int lookups = scale * 16;
    fx.slots = std::max(64, lookups); // ~25% load with half inserts
    fx.table.assign(fx.slots * 2, 0);
    std::mt19937 rng(404);
    auto hashOf = [&](int32_t k) {
        return static_cast<int>((static_cast<uint32_t>(k) * 2654435761u) %
                                fx.slots);
    };
    std::vector<int32_t> inserted;
    for (int i = 0; i < fx.slots / 4; ++i) {
        int32_t k = 1 + static_cast<int32_t>(rng() % 1000000000);
        int h = hashOf(k);
        while (fx.table[h * 2] != 0)
            h = (h + 1) % fx.slots;
        fx.table[h * 2] = k;
        fx.table[h * 2 + 1] = k ^ 0x5a5a5a5a;
        inserted.push_back(k);
    }
    for (int i = 0; i < lookups; ++i) {
        bool hit = rng() % 2 == 0 && !inserted.empty();
        int32_t k = hit ? inserted[rng() % inserted.size()]
                        : 1 + static_cast<int32_t>(rng() % 1000000000);
        fx.keys.push_back(k);
    }
    return fx;
}

App
makeHashTable()
{
    App app;
    app.name = "hash-table";
    app.description = "Hash-table lookup";
    app.dataset = "int32 keys/values, 25% load";
    app.keyFeatures = "ReadIt";
    app.source = hashTableSrc;
    app.randomAccessFraction = 0.15;
    app.generate = [](DramImage &dram, int scale) {
        HashFixture fx = buildHashFixture(scale);
        dram.fill("keys", fx.keys);
        dram.fill("table", fx.table);
        dram.resize("found", scale * 16);
        return std::vector<int32_t>{scale, fx.slots};
    };
    app.reference = [](DramImage &dram, const std::vector<int32_t> &args,
                       uint64_t lo, uint64_t hi) {
        const int32_t *keys = region<int32_t>(dram, "keys");
        const int32_t *table = region<int32_t>(dram, "table");
        int32_t *found = region<int32_t>(dram, "found");
        const uint32_t slots = static_cast<uint32_t>(args[1]);
        for (uint64_t i = lo * 16; i < hi * 16; ++i) {
            const int32_t key = keys[i];
            uint32_t h = static_cast<uint32_t>(key) * 2654435761u % slots;
            int32_t value = -1;
            for (uint32_t p = 0; p < slots; ++p) {
                const int32_t stored = table[h * 2];
                if (stored == key) {
                    value = table[h * 2 + 1];
                    break;
                }
                if (stored == 0)
                    break;
                if (++h == slots)
                    h = 0;
            }
            found[i] = value;
        }
    };
    app.accountedBytes = [](int scale) {
        return static_cast<uint64_t>(scale) * 16 * (4 + 4);
    };
    app.gpu = {8, 40, 2, false, 1, 0, 16};
    app.gpu.divergence = 39;
    app.cpuScale = 1 << 17;
    app.paper = {56, 42, 40, 7.4, 2.70, 1.00, 3.23, 29.6, 2.3};
    return app;
}

// ---- search (Boyer-Moore-Horspool) ----------------------------------------

const char *searchSrc = R"(
DRAM<char> text;
DRAM<int> patd;
DRAM<int> shiftd;
DRAM<int> counts;

void main(int chunks, int m) {
  SRAM<int, 16> pat;
  SRAM<int, 256> shift;
  foreach (16) { int i => pat[i] = patd[i]; };
  foreach (256) { int i => shift[i] = shiftd[i]; };
  foreach (chunks) { int t =>
    pragma(eliminate_hierarchy);
    PeekReadIt<32> it(text, t * 256);
    int pos = 0;
    int hits = 0;
    while (pos <= 256 - m) {
      int j = m - 1;
      while (j >= 0 && it[j] == pat[j]) {
        j = j - 1;
      };
      if (j < 0) {
        hits++;
        pos = pos + m;
        it += m;
      } else {
        int c = it[m - 1];
        int s = shift[c & 255];
        pos = pos + s;
        it += s;
      };
    };
    counts[t] = hits;
  };
}
)";

struct SearchFixture
{
    std::vector<int8_t> text;
    std::vector<int32_t> pat;
    std::vector<int32_t> shift;
    int m;
};

SearchFixture
buildSearchFixture(int scale)
{
    SearchFixture fx;
    const std::string pattern = "Moby Dick";
    fx.m = static_cast<int>(pattern.size());
    fx.pat.assign(16, 0);
    for (int i = 0; i < fx.m; ++i)
        fx.pat[i] = pattern[i];
    fx.shift.assign(256, fx.m);
    for (int i = 0; i < fx.m - 1; ++i)
        fx.shift[static_cast<unsigned char>(pattern[i])] = fx.m - 1 - i;

    std::mt19937 rng(505);
    fx.text.assign(256 * scale, 0);
    for (auto &c : fx.text)
        c = static_cast<int8_t>('a' + rng() % 26);
    // Plant the pattern in ~1/4 of the chunks.
    for (int t = 0; t < scale; ++t) {
        if (rng() % 4 == 0) {
            int off = rng() % (256 - fx.m);
            for (int i = 0; i < fx.m; ++i)
                fx.text[t * 256 + off + i] = pattern[i];
        }
    }
    return fx;
}

App
makeSearch()
{
    App app;
    app.name = "search";
    app.description = "Exact-match search";
    app.dataset = "Find 'Moby Dick', 256 B chunks";
    app.keyFeatures = "PeekReadIt, while (x2)";
    app.source = searchSrc;
    app.generate = [](DramImage &dram, int scale) {
        SearchFixture fx = buildSearchFixture(scale);
        dram.fill("text", fx.text);
        dram.fill("patd", fx.pat);
        dram.fill("shiftd", fx.shift);
        dram.resize("counts", scale);
        return std::vector<int32_t>{scale, fx.m};
    };
    app.reference = [](DramImage &dram, const std::vector<int32_t> &args,
                       uint64_t lo, uint64_t hi) {
        const int8_t *text = region<int8_t>(dram, "text");
        const int32_t *pat = region<int32_t>(dram, "patd");
        const int32_t *shift = region<int32_t>(dram, "shiftd");
        int32_t *counts = region<int32_t>(dram, "counts");
        const int m = args[1];
        for (uint64_t t = lo; t < hi; ++t) {
            const int8_t *chunk = text + t * 256;
            int pos = 0, hits = 0;
            while (pos <= 256 - m) {
                int j = m - 1;
                while (j >= 0 && chunk[pos + j] == pat[j])
                    --j;
                if (j < 0) {
                    ++hits;
                    pos += m;
                } else {
                    pos += shift[chunk[pos + m - 1] & 255];
                }
            }
            counts[t] = hits;
        }
    };
    app.accountedBytes = [](int scale) {
        return static_cast<uint64_t>(scale) * (256 + 4);
    };
    app.gpu = {256, 900, 8, false, 1, 0};
    app.gpu.divergence = 44;
    app.cpuScale = 1 << 17;
    app.paper = {54, 481, 51, 120.6, 1.37, 1.18, 1.38, 66.3, 0.8};
    return app;
}

// ---- Huffman fixtures (shared by enc/dec) ----------------------------------

constexpr int kHuffS = 64; ///< symbols per thread
/** Words per thread: <= 16 bits per symbol, plus slack. */
constexpr int kHuffW = kHuffS / 2 + 2;

/** huff-enc's encoder for one thread: pack @p S symbols MSB-first into
 * @p W words at @p out, zero padded. */
void
huffEncode(const int32_t *syms, const int32_t *codes, const int32_t *lens,
           int S, int W, uint32_t *out)
{
    uint64_t cur = 0;
    int nb = 0, word = 0;
    for (int i = 0; i < S; ++i) {
        const int sym = syms[i];
        cur = (cur << lens[sym]) | static_cast<uint32_t>(codes[sym]);
        nb += lens[sym];
        while (nb >= 32) {
            out[word++] = static_cast<uint32_t>(cur >> (nb - 32));
            nb -= 32;
        }
    }
    if (nb > 0)
        out[word++] = static_cast<uint32_t>(cur << (32 - nb));
    while (word < W)
        out[word++] = 0;
}

struct HuffFixture
{
    // Canonical code: 64 symbols, lengths <= 16.
    std::vector<int32_t> lens;     // per symbol
    std::vector<int32_t> codes;    // per symbol (canonical)
    std::vector<int32_t> tables;   // first[17] cnt[17] off[17] syms[64]
    std::vector<int32_t> symbols;  // the per-thread symbol streams
    std::vector<uint32_t> enc;     // huffEncode of symbols, kHuffW/thread
};

HuffFixture
buildHuffFixture(int scale)
{
    HuffFixture fx;
    // Assign lengths: short codes for low symbols (skewed, max 12).
    fx.lens.resize(64);
    for (int s = 0; s < 64; ++s)
        fx.lens[s] = std::min(12, 4 + s / 8);
    // Canonical code assignment.
    std::vector<int> count(17, 0);
    for (int s = 0; s < 64; ++s)
        ++count[fx.lens[s]];
    std::vector<uint32_t> first(17, 0);
    uint32_t code = 0;
    for (int len = 1; len <= 16; ++len) {
        code = (code + count[len - 1]) << 1;
        first[len] = code;
    }
    std::vector<uint32_t> next = first;
    fx.codes.resize(64);
    std::vector<int> offset(17, 0);
    {
        int off = 0;
        for (int len = 1; len <= 16; ++len) {
            offset[len] = off;
            off += count[len];
        }
    }
    std::vector<int32_t> syms(64, 0);
    for (int s = 0; s < 64; ++s) {
        int len = fx.lens[s];
        fx.codes[s] = static_cast<int32_t>(next[len]++);
        syms[offset[len] + static_cast<int>(fx.codes[s] - first[len])] = s;
    }
    // Flatten tables: first, cnt, off, syms.
    for (int l = 0; l <= 16; ++l)
        fx.tables.push_back(static_cast<int32_t>(first[l]));
    for (int l = 0; l <= 16; ++l)
        fx.tables.push_back(count[l]);
    for (int l = 0; l <= 16; ++l)
        fx.tables.push_back(offset[l]);
    for (int s = 0; s < 64; ++s)
        fx.tables.push_back(syms[s]);

    // Symbol streams, skewed toward short codes.
    std::mt19937 rng(606);
    fx.symbols.resize(scale * kHuffS);
    for (auto &sym : fx.symbols) {
        sym = static_cast<int32_t>(rng() % 64);
        if (rng() % 3)
            sym /= 4;
    }
    fx.enc.resize(scale * kHuffW);
    for (int t = 0; t < scale; ++t) {
        huffEncode(&fx.symbols[t * kHuffS], fx.codes.data(),
                   fx.lens.data(), kHuffS, kHuffW, &fx.enc[t * kHuffW]);
    }
    return fx;
}

/** Both Huffman apps move S symbols and W words per thread. */
uint64_t
huffAccountedBytes(int scale)
{
    return static_cast<uint64_t>(scale) * 4 * (kHuffS + kHuffW);
}

// ---- huff-dec ---------------------------------------------------------------

const char *huffDecSrc = R"(
DRAM<int> enc;
DRAM<int> tables;
DRAM<int> dec;

void main(int count, int S, int W) {
  SRAM<int, 17> first;
  SRAM<int, 17> cnt;
  SRAM<int, 17> off;
  SRAM<int, 64> syms;
  foreach (17) { int i => first[i] = tables[i]; };
  foreach (17) { int i => cnt[i] = tables[17 + i]; };
  foreach (17) { int i => off[i] = tables[34 + i]; };
  foreach (64) { int i => syms[i] = tables[51 + i]; };
  foreach (count) { int t =>
    pragma(eliminate_hierarchy);
    ReadIt<16> bits(enc, t * W);
    WriteIt<16> outw(dec, t * S);
    uint buf = 0;
    int nbits = 0;
    int produced = 0;
    int code = 0;
    int len = 0;
    while (produced < S) {
      if (nbits == 0) {
        buf = *bits;
        bits++;
        nbits = 32;
      };
      int b = (buf >> 31) & 1;
      buf = buf << 1;
      nbits--;
      code = (code << 1) | b;
      len++;
      int idx = code - first[len];
      if (cnt[len] > 0 && idx >= 0 && idx < cnt[len]) {
        *outw = syms[off[len] + idx];
        outw++;
        produced++;
        code = 0;
        len = 0;
      };
    };
  };
}
)";

App
makeHuffDec()
{
    App app;
    app.name = "huff-dec";
    app.description = "Decompression";
    app.dataset = "64 codes, 16-bit max length";
    app.keyFeatures = "ReadIt";
    app.source = huffDecSrc;
    app.generate = [](DramImage &dram, int scale) {
        HuffFixture fx = buildHuffFixture(scale);
        dram.fill("enc", fx.enc);
        dram.fill("tables", fx.tables);
        dram.resize("dec", scale * kHuffS);
        return std::vector<int32_t>{scale, kHuffS, kHuffW};
    };
    // S and W are the kHuffS and kHuffW that generate() passes as
    // args[1] and args[2]; as constants they let the decode loop run
    // ~8% faster.
    app.reference = [](DramImage &dram, const std::vector<int32_t> &,
                       uint64_t lo, uint64_t hi) {
        const uint32_t *enc = region<uint32_t>(dram, "enc");
        const int32_t *tables = region<int32_t>(dram, "tables");
        int32_t *dec = region<int32_t>(dram, "dec");
        const int32_t *first = tables, *cnt = tables + 17,
                      *off = tables + 34, *syms = tables + 51;
        for (uint64_t t = lo; t < hi; ++t) {
            const uint32_t *bits = enc + t * kHuffW;
            int32_t *out = dec + t * kHuffS;
            uint32_t buf = 0;
            int nbits = 0, produced = 0, code = 0, len = 0;
            while (produced < kHuffS) {
                if (nbits == 0) {
                    buf = *bits++;
                    nbits = 32;
                }
                code = (code << 1) | static_cast<int>(buf >> 31);
                buf <<= 1;
                --nbits;
                ++len;
                const int idx = code - first[len];
                if (cnt[len] > 0 && idx >= 0 && idx < cnt[len]) {
                    out[produced++] = syms[off[len] + idx];
                    code = 0;
                    len = 0;
                }
            }
        }
    };
    app.accountedBytes = huffAccountedBytes;
    app.gpu = {140, 1400, 4, false, 1, 0};
    app.gpu.divergence = 47;
    app.cpuScale = 1 << 17;
    app.paper = {40, 380, 97, 19.0, 0.98, 1.07, 1.08, 17.1, 31.6};
    return app;
}

// ---- huff-enc ---------------------------------------------------------------

const char *huffEncSrc = R"(
DRAM<int> symbols;
DRAM<int> codesd;
DRAM<int> lensd;
DRAM<int> enc;

void main(int count, int S, int W) {
  SRAM<int, 64> codes;
  SRAM<int, 64> lens;
  foreach (64) { int i => codes[i] = codesd[i]; };
  foreach (64) { int i => lens[i] = lensd[i]; };
  foreach (count) { int t =>
    pragma(eliminate_hierarchy);
    ReadIt<16> it(symbols, t * S);
    ManualWriteIt<8> outw(enc, t * W);
    uint cur = 0;
    int nb = 0;
    int i = 0;
    int written = 0;
    while (i < S) {
      int sym = *it;
      it++;
      uint c = codes[sym];
      int l = lens[sym];
      int room = 32 - nb;
      if (l <= room) {
        cur = (cur << l) | c;
        nb = nb + l;
      } else {
        cur = (cur << room) | (c >> (l - room));
        *outw = cur;
        outw++;
        written++;
        cur = c & ((1 << (l - room)) - 1);
        nb = l - room;
      };
      if (nb == 32) {
        *outw = cur;
        outw++;
        written++;
        cur = 0;
        nb = 0;
      };
      i++;
    };
    if (nb > 0) {
      cur = cur << (32 - nb);
      *outw = cur;
      outw++;
      written++;
    };
    while (written < W) {
      *outw = 0;
      outw++;
      written++;
    };
    flush(outw);
  };
}
)";

App
makeHuffEnc()
{
    App app;
    app.name = "huff-enc";
    app.description = "Compression";
    app.dataset = "64 codes, 16-bit max length";
    app.keyFeatures = "ManualWriteIt";
    app.source = huffEncSrc;
    app.generate = [](DramImage &dram, int scale) {
        HuffFixture fx = buildHuffFixture(scale);
        dram.fill("symbols", fx.symbols);
        dram.fill("codesd", fx.codes);
        dram.fill("lensd", fx.lens);
        dram.resize("enc", scale * kHuffW);
        return std::vector<int32_t>{scale, kHuffS, kHuffW};
    };
    // S and W: as in huff-dec's reference.
    app.reference = [](DramImage &dram, const std::vector<int32_t> &,
                       uint64_t lo, uint64_t hi) {
        const int32_t *symbols = region<int32_t>(dram, "symbols");
        const int32_t *codes = region<int32_t>(dram, "codesd");
        const int32_t *lens = region<int32_t>(dram, "lensd");
        uint32_t *enc = region<uint32_t>(dram, "enc");
        for (uint64_t t = lo; t < hi; ++t) {
            huffEncode(symbols + t * kHuffS, codes, lens, kHuffS, kHuffW,
                       enc + t * kHuffW);
        }
    };
    app.accountedBytes = huffAccountedBytes;
    app.gpu = {140, 1100, 4, false, 1, 0};
    app.gpu.divergence = 34;
    app.cpuScale = 1 << 17;
    app.paper = {58, 409, 172, 35.0, 1.01, 1.17, 1.18, 35.0, 17.5};
    return app;
}

// ---- kD-tree ----------------------------------------------------------------

const char *kdTreeSrc = R"(
DRAM<int> tree;
DRAM<int> queries;
DRAM<int> results;

void main(int nq) {
  foreach (nq) { int q =>
    SRAM<int, 2> ctl;
    ctl[0] = 1;
    ctl[1] = 0;
    int qx0 = queries[q * 4];
    int qy0 = queries[q * 4 + 1];
    int qx1 = queries[q * 4 + 2];
    int qy1 = queries[q * 4 + 3];
    int node = 0;
    int done = 0;
    while (done == 0) {
      int base = node * 24;
      int leaf = tree[base];
      int x0 = tree[base + 1];
      int y0 = tree[base + 2];
      int sz = tree[base + 3];
      if (leaf == 1) {
        int ix0 = max(qx0, x0);
        int iy0 = max(qy0, y0);
        int ix1 = min(qx1, x0 + sz - 1);
        int iy1 = min(qy1, y0 + sz - 1);
        int w = ix1 - ix0 + 1;
        int h = iy1 - iy0 + 1;
        if (w > 0 && h > 0) {
          fetch_add(ctl, 1, w * h);
        };
        done = 1;
      } else {
        int csz = sz / 4;
        // Figure 11: 16 child-intersection tests vectorized by a
        // nested foreach; the OR of disjoint bits is the reduction.
        int mask = foreach (16) { int lane =>
          int cx = x0 + (lane % 4) * csz;
          int cy = y0 + (lane / 4) * csz;
          int hit = 1;
          if (qx1 < cx || qx0 > cx + csz - 1) { hit = 0; };
          if (qy1 < cy || qy0 > cy + csz - 1) { hit = 0; };
          if (tree[base + 8 + lane] < 0) { hit = 0; };
          return hit << lane;
        };
        int k = 0;
        int mm = mask;
        while (mm != 0) {
          mm = mm & (mm - 1);
          k++;
        };
        if (k == 0) {
          done = 1;
        } else {
          if (k > 1) {
            fetch_add(ctl, 0, k - 1);
          };
          int child = fork(k);
          int bit = 0;
          int seen = 0;
          int m2 = mask;
          int sel = 0 - 1;
          while (sel < 0) {
            if ((m2 & 1) == 1) {
              if (seen == child) { sel = bit; };
              seen++;
            };
            m2 = m2 >> 1;
            bit++;
          };
          node = tree[base + 8 + sel];
        };
      };
    };
    int rem = fetch_sub(ctl, 0, 1);
    if (rem != 1) { exit(); };
    results[q] = ctl[1];
  };
}
)";

struct KdFixture
{
    std::vector<int32_t> tree;
    std::vector<int32_t> queries;
};

KdFixture
buildKdFixture(int scale)
{
    KdFixture fx;
    // Folded 16-ary tree over a dense 256x256 point grid; levels:
    // 256 -> 64 -> 16 -> 4 (leaves).
    struct Pending
    {
        int x0, y0, sz;
    };
    auto addNode = [&](int x0, int y0, int sz, bool leaf) {
        int id = static_cast<int>(fx.tree.size()) / 24;
        fx.tree.insert(fx.tree.end(), 24, 0);
        int b = id * 24;
        fx.tree[b] = leaf ? 1 : 0;
        fx.tree[b + 1] = x0;
        fx.tree[b + 2] = y0;
        fx.tree[b + 3] = sz;
        for (int c = 0; c < 16; ++c)
            fx.tree[b + 8 + c] = -1;
        return id;
    };
    std::function<int(int, int, int)> build = [&](int x0, int y0,
                                                  int sz) -> int {
        bool leaf = sz <= 4;
        int id = addNode(x0, y0, sz, leaf);
        if (!leaf) {
            int csz = sz / 4;
            for (int c = 0; c < 16; ++c) {
                int cid =
                    build(x0 + (c % 4) * csz, y0 + (c / 4) * csz, csz);
                fx.tree[id * 24 + 8 + c] = cid;
            }
        }
        return id;
    };
    build(0, 0, 256);

    std::mt19937 rng(707);
    for (int q = 0; q < scale; ++q) {
        int x0 = rng() % 250;
        int y0 = rng() % 250;
        int w = 3 + rng() % 3;
        int h = 3 + rng() % 3;
        fx.queries.push_back(x0);
        fx.queries.push_back(y0);
        fx.queries.push_back(x0 + w);
        fx.queries.push_back(y0 + h);
    }
    return fx;
}

/** Points of the query box [qx0, qx1] x [qy0, qy1] under @p node, by
 * kD-tree's walk: a leaf counts its clipped area, an inner node
 * descends into each present child whose box meets the query. */
int
kdCount(const int32_t *tree, int node, int qx0, int qy0, int qx1, int qy1)
{
    const int32_t *n = tree + node * 24;
    const int x0 = n[1], y0 = n[2], sz = n[3];
    if (n[0] == 1) {
        const int w = std::min(qx1, x0 + sz - 1) - std::max(qx0, x0) + 1;
        const int h = std::min(qy1, y0 + sz - 1) - std::max(qy0, y0) + 1;
        return w > 0 && h > 0 ? w * h : 0;
    }
    const int csz = sz / 4;
    int total = 0;
    for (int c = 0; c < 16; ++c) {
        const int cx = x0 + (c % 4) * csz, cy = y0 + (c / 4) * csz;
        if (n[8 + c] >= 0 && qx1 >= cx && qx0 <= cx + csz - 1 &&
            qy1 >= cy && qy0 <= cy + csz - 1)
            total += kdCount(tree, n[8 + c], qx0, qy0, qx1, qy1);
    }
    return total;
}

App
makeKdTree()
{
    App app;
    app.name = "kD-tree";
    app.description = "Count points in rect.";
    app.dataset = "dense point grid, random searches yield ~16 points";
    app.keyFeatures = "fork";
    app.source = kdTreeSrc;
    app.randomAccessFraction = 0.25;
    app.generate = [](DramImage &dram, int scale) {
        KdFixture fx = buildKdFixture(scale);
        dram.fill("tree", fx.tree);
        dram.fill("queries", fx.queries);
        dram.resize("results", scale);
        return std::vector<int32_t>{scale};
    };
    app.reference = [](DramImage &dram, const std::vector<int32_t> &,
                       uint64_t lo, uint64_t hi) {
        const int32_t *tree = region<int32_t>(dram, "tree");
        const int32_t *queries = region<int32_t>(dram, "queries");
        int32_t *results = region<int32_t>(dram, "results");
        for (uint64_t q = lo; q < hi; ++q) {
            const int32_t *box = queries + q * 4;
            results[q] = kdCount(tree, 0, box[0], box[1], box[2], box[3]);
        }
    };
    app.accountedBytes = [](int scale) {
        // Paper: counted-point bytes (about 16 points x 4 B per query).
        return static_cast<uint64_t>(scale) * 16 * 4;
    };
    app.gpu = {64, 600, 12, false, 4, 0.0085};
    app.gpu.divergence = 20;
    app.cpuScale = 1 << 15;
    app.paper = {74, 52, 1.5, 3.4, 1.28, 0.92, 1.65, 57.1, 0.2};
    return app;
}

} // namespace

const std::vector<App> &
allApps()
{
    static const std::vector<App> apps = [] {
        std::vector<App> v;
        v.push_back(makeIsipv4());
        v.push_back(makeIp2int());
        v.push_back(makeMurmur3());
        v.push_back(makeHashTable());
        v.push_back(makeSearch());
        v.push_back(makeHuffDec());
        v.push_back(makeHuffEnc());
        v.push_back(makeKdTree());
        return v;
    }();
    return apps;
}

const App &
findApp(const std::string &name)
{
    for (const auto &app : allApps()) {
        if (app.name == name)
            return app;
    }
    throw std::out_of_range("no app named '" + name + "'");
}

} // namespace apps
} // namespace revet
