/**
 * @file
 * Recorded-digest goldens shared by the analysis suites: the sources
 * under golden (every app and language fixture), the FNV-1a-64 digest
 * a report hashes to, and the "<label> <fields...>" golden files the
 * digests are recorded in.
 */

#ifndef REVET_TESTS_GRAPH_GOLDENS_HH
#define REVET_TESTS_GRAPH_GOLDENS_HH

#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"

#include "lang_fixtures.hh"

namespace revet
{
namespace fixtures
{

inline uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

inline std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Recorded lines of golden file @p path, skipping '#' comments: the
 * first field (the graph label) to the rest of the line. */
inline std::map<std::string, std::string>
readGoldens(const char *path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label, rest;
        fields >> label >> std::ws;
        std::getline(fields, rest);
        out[label] = rest;
    }
    return out;
}

/** App names and language-fixture labels: the sources under golden. */
inline std::vector<std::string>
goldenSources()
{
    std::vector<std::string> out;
    for (const auto &app : apps::allApps())
        out.push_back(app.name);
    for (const auto &f : languageFixtures())
        out.push_back(f.label);
    return out;
}

inline std::string
goldenSource(const std::string &label)
{
    for (const auto &app : apps::allApps())
        if (app.name == label)
            return app.source;
    for (const auto &f : languageFixtures())
        if (label == f.label)
            return f.source;
    return {};
}

/** A gtest parameter name for source label @p label. */
inline std::string
goldenTestName(std::string label)
{
    for (auto &c : label) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return label;
}

} // namespace fixtures
} // namespace revet

#endif // REVET_TESTS_GRAPH_GOLDENS_HH
