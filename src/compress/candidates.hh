/**
 * @file
 * Enumeration of candidate dictionary sequences.
 *
 * A candidate is a sequence of 1..maxLen instruction words that
 * (a) lies entirely within one basic block and (b) contains no
 * relative branch (paper section 3.1.1: branch instructions with
 * offset fields are never compressed; indirect branches are fair
 * game). Occurrence lists are start indices in .text.
 */

#ifndef CODECOMP_COMPRESS_CANDIDATES_HH
#define CODECOMP_COMPRESS_CANDIDATES_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "program/cfg.hh"
#include "program/program.hh"

namespace codecomp::compress {

/** A unique candidate sequence with all its occurrence positions. */
struct Candidate
{
    std::vector<isa::Word> seq;
    std::vector<uint32_t> positions; //!< sorted start indices
};

/**
 * The one way to key an instruction sequence, shared by enumeration
 * and the refit strategy: a 64-bit hash extended one word at a time,
 * looked up in an open-addressing table of 4-byte id slots. The table
 * stores no keys. Every probe that lands on an id asks the caller
 * whether that id's sequence is the one being looked up, so a hash
 * collision can never merge two different sequences.
 */
class SequenceTable
{
  public:
    /** Hash of the empty sequence. */
    static constexpr uint64_t kEmptyHash = 0xcbf29ce484222325ull;

    /** Hash of the sequence hashed as @p hash extended by @p word. */
    static constexpr uint64_t
    extend(uint64_t hash, isa::Word word)
    {
        return (hash ^ word) * 0x9e3779b97f4a7c15ull;
    }

    static uint64_t
    hashOf(const std::vector<isa::Word> &seq)
    {
        uint64_t hash = kEmptyHash;
        for (isa::Word word : seq)
            hash = extend(hash, word);
        return hash;
    }

    /** A table for up to @p maxIds ids; it never resizes. */
    explicit SequenceTable(size_t maxIds)
        : slots_(std::bit_ceil(maxIds + maxIds / 2 + 2)),
          shift_(64 - std::countr_zero(slots_.size()))
    {}

    /**
     * The id stored under @p hash for which same(id) holds. If there is
     * none, @p newId is stored (it must be below 2^32 - 1) and returned.
     */
    template <typename Same>
    uint32_t
    findOrInsert(uint64_t hash, uint32_t newId, Same &&same)
    {
        size_t i = probe(hash, same);
        if (slots_[i] == 0)
            slots_[i] = newId + 1;
        return slots_[i] - 1;
    }

    /** The id stored under @p hash for which same(id) holds, or nullopt. */
    template <typename Same>
    std::optional<uint32_t>
    find(uint64_t hash, Same &&same) const
    {
        size_t i = probe(hash, same);
        if (slots_[i] == 0)
            return std::nullopt;
        return slots_[i] - 1;
    }

  private:
    /** The slot holding the matching id, or the empty slot ending the
     *  probe sequence. */
    template <typename Same>
    size_t
    probe(uint64_t hash, Same &same) const
    {
        size_t mask = slots_.size() - 1;
        size_t i = static_cast<size_t>(hash >> shift_);
        while (slots_[i] != 0 && !same(slots_[i] - 1))
            i = (i + 1) & mask;
        return i;
    }

    std::vector<uint32_t> slots_; //!< id + 1; 0 = empty
    unsigned shift_;              //!< hash bits above the slot index
};

/** Per-instruction compressibility mask (false for relative branches). */
std::vector<bool> eligibilityMask(const Program &program);

/**
 * Enumerate all candidates with lengths in [minLen, maxLen], in the
 * order of a left-to-right scan: ascending first occurrence, then
 * ascending length.
 *
 * One serial scan visits every window (start, length) in that order
 * and groups equal windows in a SequenceTable verified against .text.
 * A first pass counts each candidate's occurrences, so the second pass
 * fills every position list at its exact size. The output depends on
 * nothing but the arguments, so it is the same for any job count.
 */
std::vector<Candidate> enumerateCandidates(const Program &program,
                                           const Cfg &cfg, uint32_t minLen,
                                           uint32_t maxLen);

/**
 * Walk the maximal set of non-overlapping occurrences from the sorted
 * position list of a sequence of @p length, skipping any occurrence
 * whose span touches a nonzero byte of @p consumed (pass an empty mask
 * to treat everything as live). Calls fn(pos) for each chosen occurrence
 * and returns how many were chosen.
 *
 * This is the single definition of "live occurrences": greedy
 * acceptance (greedy.cc) and savings re-evaluation
 * (countNonOverlapping) both walk through here, so the savings cached
 * by the greedy picker can never disagree with the placements that
 * acceptance actually emits. fn may mark the chosen span in @p
 * consumed: chosen spans end before the next position considered, so
 * such marks never affect the remainder of the same walk.
 */
template <typename Fn>
uint32_t
forEachNonOverlapping(const std::vector<uint32_t> &positions, uint32_t length,
                      const std::vector<uint8_t> &consumed, Fn &&fn)
{
    uint32_t count = 0;
    uint64_t next_free = 0;
    for (uint32_t pos : positions) {
        if (pos < next_free)
            continue;
        if (!consumed.empty()) {
            bool blocked = false;
            for (uint32_t i = pos; i < pos + length; ++i) {
                if (consumed[i]) {
                    blocked = true;
                    break;
                }
            }
            if (blocked)
                continue;
        }
        fn(pos);
        ++count;
        next_free = static_cast<uint64_t>(pos) + length;
    }
    return count;
}

/** forEachNonOverlapping with no per-occurrence action: just the count. */
uint32_t countNonOverlapping(const std::vector<uint32_t> &positions,
                             uint32_t length,
                             const std::vector<uint8_t> &consumed);

/** Each candidate's standalone count: countNonOverlapping(positions,
 *  length, {}), the live occurrences before anything is selected. */
std::vector<uint32_t>
standaloneCounts(const std::vector<Candidate> &candidates);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CANDIDATES_HH
