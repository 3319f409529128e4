#include "compress/greedy.hh"

#include <algorithm>
#include <queue>
#include <utility>

#include "support/logging.hh"

namespace codecomp::compress {

namespace {

/** Heap entry: cached savings for a candidate. */
struct HeapEntry
{
    int64_t savings;
    uint32_t candId;
};

struct HeapLess
{
    bool
    operator()(const HeapEntry &a, const HeapEntry &b) const
    {
        // Max savings first; break ties toward the lower candidate id
        // (which is also "earliest first occurrence" by construction).
        if (a.savings != b.savings)
            return a.savings < b.savings;
        return a.candId > b.candId;
    }
};

/** Assumed codeword cost for candidate @p id under an optional
 *  per-candidate override. */
inline uint32_t
costOf(const GreedyConfig &config, const std::vector<uint32_t> &costs,
       uint32_t id)
{
    return costs.empty() ? config.codewordNibbles : costs[id];
}

constexpr uint32_t kNoEntry = UINT32_MAX;

/** Selection under way: the consumed-slot mask, the entry placed at
 *  each chosen start, and the dictionary so far. */
struct Selection
{
    explicit Selection(size_t textSize)
        : consumed(textSize, 0), entryAt(textSize, kNoEntry)
    {}

    /** Consume one accepted candidate: mark its slots and record its
     *  starts. Walks the identical forEachNonOverlapping as
     *  countNonOverlapping, so the savings evaluated before acceptance
     *  always match what is placed. */
    void
    accept(const Candidate &cand)
    {
        uint32_t length = static_cast<uint32_t>(cand.seq.size());
        uint32_t entry_id =
            static_cast<uint32_t>(result.dict.entries.size());
        uint32_t count = forEachNonOverlapping(
            cand.positions, length, consumed, [&](uint32_t pos) {
                std::fill_n(consumed.begin() + pos, length, 1);
                entryAt[pos] = entry_id;
            });
        CC_ASSERT(count > 0, "accepted candidate with no live occurrences");
        result.dict.entries.push_back(cand.seq);
        result.useCount.push_back(count);
    }

    /** The result, placements emitted in start order by one sweep. */
    SelectionResult
    finish() &&
    {
        for (uint32_t start = 0; start < entryAt.size(); ++start) {
            uint32_t id = entryAt[start];
            if (id != kNoEntry)
                result.placements.push_back(
                    {start,
                     static_cast<uint32_t>(result.dict.entries[id].size()),
                     id});
        }
        return std::move(result);
    }

    std::vector<uint8_t> consumed;
    std::vector<uint32_t> entryAt; //!< entry placed at each start
    SelectionResult result;
};

void
checkConfig(const GreedyConfig &config)
{
    std::string error = greedyConfigError(config);
    if (!error.empty())
        CC_FATAL("invalid selection config: ", error);
}

/** The candidates of @p program, after checking @p config (before
 *  enumeration sees bad lengths). */
std::vector<Candidate>
checkedCandidates(const Program &program, const GreedyConfig &config)
{
    checkConfig(config);
    return enumerateCandidates(program, Cfg::build(program),
                               config.minEntryLen, config.maxEntryLen);
}

void
checkInputs(const GreedyConfig &config,
            const std::vector<Candidate> &candidates,
            const std::vector<uint32_t> &codewordCosts,
            const std::vector<uint32_t> &standalone = {})
{
    checkConfig(config);
    for (const std::vector<uint32_t> *perCandidate :
         {&codewordCosts, &standalone})
        CC_ASSERT(perCandidate->empty() ||
                      perCandidate->size() == candidates.size(),
                  "per-candidate vector length mismatch");
}

} // namespace

SelectionResult
selectGreedyFromCandidates(size_t textSize,
                           const std::vector<Candidate> &candidates,
                           const GreedyConfig &config,
                           const std::vector<uint32_t> &codewordCosts,
                           const std::vector<uint32_t> &standalone)
{
    checkInputs(config, candidates, codewordCosts, standalone);
    std::vector<uint32_t> counted;
    if (standalone.empty())
        counted = standaloneCounts(candidates);
    const std::vector<uint32_t> &occ0 =
        standalone.empty() ? counted : standalone;
    auto initial = [&](uint32_t id) {
        return savingsNibbles(
            config, static_cast<uint32_t>(candidates[id].seq.size()),
            occ0[id], costOf(config, codewordCosts, id));
    };

    // Counting sort of the positive initial savings, descending. Ids
    // ascend within a bucket, so the run is in exact HeapLess order.
    // occ * length <= textSize, so no savings exceed insnNibbles *
    // textSize, and greedyConfigError caps insnNibbles at 64.
    int64_t max_savings = 0;
    for (uint32_t id = 0; id < candidates.size(); ++id)
        max_savings = std::max(max_savings, initial(id));
    std::vector<uint32_t> slot(static_cast<size_t>(max_savings) + 1, 0);
    for (uint32_t id = 0; id < candidates.size(); ++id)
        if (int64_t savings = initial(id); savings > 0)
            ++slot[savings];
    uint32_t run_size = 0;
    for (int64_t savings = max_savings; savings > 0; --savings)
        run_size += std::exchange(slot[savings], run_size);
    // The entry past the end is a sentinel below every real entry.
    std::vector<HeapEntry> run(run_size + 1, {0, 0});
    for (uint32_t id = 0; id < candidates.size(); ++id)
        if (int64_t savings = initial(id); savings > 0)
            run[slot[savings]++] = {savings, id};

    // Pop in the order of one max-heap over every entry: the greater
    // of the run's head and the top of the heap of re-pushed entries.
    // Each id has at most one entry in either, so the order is total.
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
    size_t next = 0;
    Selection sel(textSize);
    while (sel.result.dict.entries.size() < config.maxEntries) {
        bool from_run = heap.empty() || HeapLess{}(heap.top(), run[next]);
        HeapEntry top = from_run ? run[next++] : heap.top();
        if (top.savings == 0) // the sentinel, and the heap is empty
            break;
        if (!from_run)
            heap.pop();
        const Candidate &cand = candidates[top.candId];
        uint32_t length = static_cast<uint32_t>(cand.seq.size());
        uint32_t occ =
            countNonOverlapping(cand.positions, length, sel.consumed);
        int64_t savings =
            savingsNibbles(config, length, occ,
                           costOf(config, codewordCosts, top.candId));
        CC_ASSERT(savings <= top.savings,
                  "candidate savings increased; lazy heap invalid");
        if (savings <= 0)
            continue;
        if (savings < top.savings) {
            heap.push({savings, top.candId});
            continue;
        }
        sel.accept(cand);
    }
    return std::move(sel).finish();
}

SelectionResult
selectByScore(
    size_t textSize, const std::vector<Candidate> &candidates,
    uint32_t maxEntries,
    const std::function<int64_t(uint32_t, const std::vector<uint8_t> &)>
        &score)
{
    Selection sel(textSize);
    while (sel.result.dict.entries.size() < maxEntries) {
        int64_t best_score = 0;
        uint32_t best_id = UINT32_MAX;
        for (uint32_t id = 0; id < candidates.size(); ++id) {
            int64_t value = score(id, sel.consumed);
            if (value > best_score) {
                best_score = value;
                best_id = id;
            }
        }
        if (best_id == UINT32_MAX)
            break;
        sel.accept(candidates[best_id]);
    }
    return std::move(sel).finish();
}

SelectionResult
selectGreedyReferenceFromCandidates(size_t textSize,
                                    const std::vector<Candidate> &candidates,
                                    const GreedyConfig &config,
                                    const std::vector<uint32_t> &codewordCosts)
{
    checkInputs(config, candidates, codewordCosts);
    return selectByScore(
        textSize, candidates, config.maxEntries,
        [&](uint32_t id, const std::vector<uint8_t> &consumed) {
            uint32_t length =
                static_cast<uint32_t>(candidates[id].seq.size());
            uint32_t occ = countNonOverlapping(candidates[id].positions,
                                               length, consumed);
            return savingsNibbles(config, length, occ,
                                  costOf(config, codewordCosts, id));
        });
}

SelectionResult
selectGreedy(const Program &program, const GreedyConfig &config)
{
    return selectGreedyFromCandidates(program.text.size(),
                                      checkedCandidates(program, config),
                                      config);
}

SelectionResult
selectGreedyReference(const Program &program, const GreedyConfig &config)
{
    return selectGreedyReferenceFromCandidates(
        program.text.size(), checkedCandidates(program, config), config);
}

} // namespace codecomp::compress
