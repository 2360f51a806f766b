/**
 * @file
 * DRAM image: host-visible backing store for a program's DRAM globals.
 *
 * Each `DRAM<T> name;` global owns one byte region. The reference
 * interpreter, the compiled-dataflow executor, and the cycle simulator
 * all operate on this image, so end-to-end tests can compare output
 * regions bit-for-bit.
 */

#ifndef REVET_LANG_DRAM_IMAGE_HH
#define REVET_LANG_DRAM_IMAGE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "lang/ast.hh"

namespace revet
{
namespace lang
{

class DramImage
{
  public:
    /** Create one region per DRAM global of @p program (initially empty,
     * bind sizes with resize()). */
    explicit DramImage(const Program &program);

    /** Size region @p name to @p count elements of its element type
     * (zero-filled). */
    void resize(const std::string &name, size_t count);

    /** Raw bytes of a region. */
    std::vector<uint8_t> &bytes(const std::string &name);
    std::vector<uint8_t> &bytes(int dram);
    const std::vector<uint8_t> &bytes(int dram) const;

    int dramCount() const { return static_cast<int>(regions_.size()); }
    const std::string &name(int dram) const { return names_[dram]; }
    /** Element type of a region. */
    Scalar elemType(int dram) const { return elems_.at(dram); }

    /**
     * Read element @p idx (sign-/zero-extended to a 32-bit lane).
     * Out-of-range reads return 0 — hardware reads past the buffer are
     * undefined; 0 keeps simulation deterministic.
     */
    uint32_t load(int dram, uint64_t idx) const;

    /** Write element @p idx (no-op out of range). */
    void store(int dram, uint64_t idx, uint32_t value);

    /** Convenience typed fill from a host vector: one element per
     * entry of @p data, whose type must be the region's element width.
     * @throws std::invalid_argument on a width mismatch. */
    template <typename T>
    void
    fill(const std::string &region, const std::vector<T> &data)
    {
        resize(region, data.size());
        auto &b = bytes(region);
        if (b.size() != data.size() * sizeof(T))
            throw std::invalid_argument("fill of DRAM region '" + region +
                                        "' with entries of another width");
        std::memcpy(b.data(), data.data(), b.size());
    }

    /** Convenience typed read-back. */
    template <typename T>
    std::vector<T>
    read(const std::string &region)
    {
        auto &b = bytes(region);
        std::vector<T> out(b.size() / sizeof(T));
        std::memcpy(out.data(), b.data(), out.size() * sizeof(T));
        return out;
    }

  private:
    int indexOf(const std::string &name) const;

    std::vector<std::string> names_;
    std::vector<Scalar> elems_;
    std::vector<std::vector<uint8_t>> regions_;
};

} // namespace lang
} // namespace revet

#endif // REVET_LANG_DRAM_IMAGE_HH
