#include "compress/candidates.hh"

#include <algorithm>

#include "support/logging.hh"

namespace codecomp::compress {

std::vector<bool>
eligibilityMask(const Program &program)
{
    std::vector<bool> eligible(program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        eligible[i] = !inst.isRelativeBranch();
    }
    return eligible;
}

std::vector<Candidate>
enumerateCandidates(const Program &program, const Cfg &cfg, uint32_t minLen,
                    uint32_t maxLen)
{
    CC_ASSERT(minLen >= 1 && minLen <= maxLen, "bad candidate lengths");
    const std::vector<isa::Word> &text = program.text;
    std::vector<bool> eligible = eligibilityMask(program);

    // reach[start]: the longest window at start -- the run of eligible
    // instructions from start to the end of its block, capped at maxLen.
    std::vector<uint32_t> reach(text.size());
    size_t windows = 0;
    for (const InstRange &block : cfg.blocks()) {
        uint32_t run = 0;
        for (uint32_t pos = block.first + block.count; pos-- > block.first;) {
            run = eligible[pos] ? std::min(run + 1, maxLen) : 0;
            reach[pos] = run;
            windows += run >= minLen ? run - minLen + 1 : 0;
        }
    }

    // Pass 1: group the windows. A candidate is created at its first
    // occurrence, so ids come out in scan order; ids[w] is window w's.
    struct Group
    {
        uint64_t hash;
        uint32_t first, length, count;
    };
    std::vector<Group> groups;
    std::vector<uint32_t> ids;
    ids.reserve(windows);
    SequenceTable table(windows);
    for (uint32_t start = 0; start < text.size(); ++start) {
        uint64_t hash = SequenceTable::kEmptyHash;
        for (uint32_t len = 1; len <= reach[start]; ++len) {
            hash = SequenceTable::extend(hash, text[start + len - 1]);
            if (len < minLen)
                continue;
            uint32_t id = table.findOrInsert(
                hash, static_cast<uint32_t>(groups.size()),
                [&](uint32_t other) {
                    const Group &g = groups[other];
                    return g.hash == hash && g.length == len &&
                           std::equal(text.begin() + g.first,
                                      text.begin() + g.first + len,
                                      text.begin() + start);
                });
            if (id == groups.size())
                groups.push_back({hash, start, len, 0});
            ++groups[id].count;
            ids.push_back(id);
        }
    }

    // Pass 2: every position list at its exact size, filled in
    // ascending start order.
    std::vector<Candidate> candidates(groups.size());
    for (size_t id = 0; id < groups.size(); ++id) {
        const Group &g = groups[id];
        candidates[id].seq.assign(text.begin() + g.first,
                                  text.begin() + g.first + g.length);
        candidates[id].positions.reserve(g.count);
    }
    const uint32_t *id = ids.data();
    for (uint32_t start = 0; start < text.size(); ++start)
        for (uint32_t len = minLen; len <= reach[start]; ++len)
            candidates[*id++].positions.push_back(start);
    return candidates;
}

uint32_t
countNonOverlapping(const std::vector<uint32_t> &positions, uint32_t length,
                    const std::vector<uint8_t> &consumed)
{
    return forEachNonOverlapping(positions, length, consumed,
                                 [](uint32_t) {});
}

std::vector<uint32_t>
standaloneCounts(const std::vector<Candidate> &candidates)
{
    std::vector<uint32_t> counts(candidates.size());
    for (size_t id = 0; id < candidates.size(); ++id)
        counts[id] = countNonOverlapping(
            candidates[id].positions,
            static_cast<uint32_t>(candidates[id].seq.size()), {});
    return counts;
}

} // namespace codecomp::compress
