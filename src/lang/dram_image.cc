#include "lang/dram_image.hh"

#include <cstring>
#include <stdexcept>

namespace revet
{
namespace lang
{

DramImage::DramImage(const Program &program)
{
    for (const auto &d : program.drams) {
        names_.push_back(d.name);
        elems_.push_back(d.elem);
        regions_.emplace_back();
    }
}

int
DramImage::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<int>(i);
    }
    throw std::out_of_range("no DRAM region named '" + name + "'");
}

void
DramImage::resize(const std::string &name, size_t count)
{
    const int d = indexOf(name);
    regions_[d].assign(count * dramElemBytes(elems_[d]), 0);
}

std::vector<uint8_t> &
DramImage::bytes(const std::string &name)
{
    return regions_[indexOf(name)];
}

std::vector<uint8_t> &
DramImage::bytes(int dram)
{
    return regions_.at(dram);
}

const std::vector<uint8_t> &
DramImage::bytes(int dram) const
{
    return regions_.at(dram);
}

uint32_t
DramImage::load(int dram, uint64_t idx) const
{
    const auto &region = regions_.at(dram);
    Scalar elem = elems_.at(dram);
    int width = dramElemBytes(elem);
    uint64_t off = idx * width;
    if (off + width > region.size())
        return 0;
    uint32_t raw = 0;
    std::memcpy(&raw, region.data() + off, width);
    return normalize(elem, raw);
}

void
DramImage::store(int dram, uint64_t idx, uint32_t value)
{
    auto &region = regions_.at(dram);
    Scalar elem = elems_.at(dram);
    int width = dramElemBytes(elem);
    uint64_t off = idx * width;
    if (off + width > region.size())
        return;
    std::memcpy(region.data() + off, &value, width);
}

} // namespace lang
} // namespace revet
