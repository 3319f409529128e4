#include "compress/selection.hh"

#include <algorithm>
#include <numeric>

namespace codecomp::compress {

std::string
greedyConfigError(const GreedyConfig &config)
{
    if (config.maxEntryLen == 0)
        return "maxEntryLen must be at least 1";
    if (config.minEntryLen == 0)
        return "minEntryLen must be at least 1";
    if (config.minEntryLen > config.maxEntryLen)
        return "minEntryLen (" + std::to_string(config.minEntryLen) +
               ") exceeds maxEntryLen (" +
               std::to_string(config.maxEntryLen) + ")";
    // The nibble costs bound the largest savings, which sizes greedy's
    // counting sort; the schemes use at most 16.
    if (config.insnNibbles == 0)
        return "insnNibbles must be at least 1";
    if (std::max({config.insnNibbles, config.codewordNibbles,
                  config.dictEntryNibbles, config.dictEntryExtraNibbles}) >
        64)
        return "nibble costs must be at most 64";
    // maxEntries == 0 is deliberately legal: an empty budget means
    // pass-through (no compression), which tests and ablations rely on.
    return "";
}

std::vector<uint32_t>
rankByUseCount(const SelectionResult &selection)
{
    std::vector<uint32_t> order(selection.dict.entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&selection](uint32_t a, uint32_t b) {
                         return selection.useCount[a] >
                                selection.useCount[b];
                     });
    std::vector<uint32_t> rank_of_entry(order.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank)
        rank_of_entry[order[rank]] = rank;
    return rank_of_entry;
}

} // namespace codecomp::compress
