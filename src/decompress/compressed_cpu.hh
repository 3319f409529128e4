/**
 * @file
 * The compressed-program processor (paper Figure 3): a ppclite core
 * whose fetch stage runs the DecompressionEngine. The program counter
 * and all code pointers (LR, CTR, jump-table entries) are absolute
 * nibble addresses in the compressed space.
 */

#ifndef CODECOMP_DECOMPRESS_COMPRESSED_CPU_HH
#define CODECOMP_DECOMPRESS_COMPRESSED_CPU_HH

#include <functional>
#include <vector>

#include "decompress/engine.hh"
#include "decompress/fetch.hh"
#include "decompress/machine.hh"

namespace codecomp {

class CompressedCpu
{
  public:
    static constexpr uint64_t defaultMaxSteps = 1ull << 28;

    /** Scan the image, decode its uncompressed items once, and point
     *  the PC at the entry. */
    explicit CompressedCpu(const compress::CompressedImage &image);

    /** Run until exit; fatal if @p max_steps instructions elapse first. */
    ExecResult run(uint64_t max_steps = defaultMaxSteps);

    /** Execute one fetch slot (a whole codeword expansion counts as
     *  one slot); returns false once halted. */
    bool step() { return stepWith(fetch_hook_); }

    const Machine &machine() const { return machine_; }
    /** Mutable access for harnesses that install Machine hooks. */
    Machine &machine() { return machine_; }
    const FetchStats &fetchStats() const { return stats_; }
    uint32_t pc() const { return pc_; }

    /** Observe the fetch stream (fetch.hh): one event per item, as a
     *  byte-granular access into the compressed image (nibble addresses
     *  round outward to bytes), with the retired-instruction count and
     *  redirect flag of the whole item. */
    void setFetchHook(FetchHook hook) { fetch_hook_ = std::move(hook); }

    /**
     * Observe every retired architectural instruction: the decoded
     * instruction, the absolute nibble PC of the item it came from, and
     * its slot within that item (0 for uncompressed instructions,
     * 0..n-1 through a dictionary-entry expansion). Fires after the
     * instruction's effects land, including the halting Sc.
     */
    using RetireHook = std::function<void(const isa::Inst &inst,
                                          uint32_t item_pc, unsigned slot)>;
    void setRetireHook(RetireHook hook) { retire_hook_ = std::move(hook); }

    const DecompressionEngine &engine() const { return engine_; }
    uint64_t instCount() const { return inst_count_; }

  private:
    friend class FetchHook;

    /** The one step body; run(), step() and every hook instantiate it
     *  (fetch.hh). */
    template <typename Observer> bool stepWith(Observer &observer);

    template <typename Observer>
    ExecResult runWith(Observer &observer, uint64_t max_steps);

    /** Catchable fatal: the run's step budget is spent. */
    [[noreturn]] void budgetExceeded() const;

    /** Machine check for a dictionary entry holding a relative branch. */
    [[noreturn]] void relativeBranchInEntry(uint32_t self_pc,
                                            uint32_t rank) const;

    /** Shared branch handling; @p next_pc is the fall-through pointer. */
    void execBranch(const isa::Inst &inst, uint32_t next_pc,
                    uint32_t self_pc);

    /** Machine-check a taken indirect branch target (@p reg names the
     *  source register for the fault message). */
    void checkIndirectTarget(uint32_t target, const char *reg) const;

    const compress::CompressedImage &image_;
    DecompressionEngine engine_;
    /** Per item: the decoded instruction of an uncompressed item (a
     *  codeword's slot is unused; its entry is pre-decoded by the
     *  engine). Decoded at construction, like the native Cpu's .text. */
    std::vector<isa::Inst> itemInsts_;
    Machine machine_;
    unsigned unitNibbles_;
    uint32_t pc_;
    bool redirected_ = false;
    uint64_t inst_count_ = 0;
    uint64_t step_limit_ = UINT64_MAX; //!< budget per expanded inst
    FetchStats stats_;
    FetchHook fetch_hook_;
    RetireHook retire_hook_;
};

template <typename Observer>
bool
CompressedCpu::stepWith(Observer &observer)
{
    if (machine_.halted())
        return false;

    uint32_t base = compress::CompressedImage::nibbleBase;
    if (pc_ < base)
        throw MachineCheckError(MachineFault::FetchOutOfText, pc_,
                                "compressed PC below text base");
    uint32_t index = engine_.itemIndexAt(pc_ - base);
    const DecodedItem &item = engine_.items()[index];
    uint32_t first_byte = pc_ / 2;
    uint32_t last_byte = (pc_ + item.nibbles - 1) / 2;
    // One event per item, fired after its effects land so the retired
    // count and redirect flag are final (fetch.hh) -- a redirect can cut
    // a dictionary expansion short, and the halting Sc still counts.
    FetchEvent event{first_byte, last_byte - first_byte + 1, 0,
                     item.isCodeword, false};
    uint32_t next_pc = pc_ + item.nibbles;
    uint32_t self_pc = pc_;
    redirected_ = false;
    bool halted = false;

    if (item.isCodeword) {
        // Expansion walks the engine's pre-decoded entry cache: the
        // entry's words went through isa::decode once at engine
        // construction, so the hot loop is a walk over the cache's
        // contiguous arena.
        DecodedEntry entry = engine_.decodedEntry(item.rank);
        event.rank = item.rank;
        for (unsigned slot = 0; slot < entry.size(); ++slot) {
            // The budget is per expanded architectural instruction, not
            // per fetch slot: a multi-instruction dictionary entry must
            // not overshoot a limit that falls mid-expansion.
            if (inst_count_ >= step_limit_)
                budgetExceeded();
            const isa::Inst &inst = entry[slot];
            ++inst_count_;
            ++event.retired;
            // The loader's validator rejects such dictionaries on disk;
            // in-memory corruption still must trap, not misexecute.
            if (inst.isRelativeBranch())
                relativeBranchInEntry(self_pc, item.rank);
            if (inst.isBranch()) {
                execBranch(inst, next_pc, self_pc);
                if (retire_hook_)
                    retire_hook_(inst, self_pc, slot);
                if (redirected_)
                    break;
            } else {
                machine_.execute(inst);
                if (retire_hook_)
                    retire_hook_(inst, self_pc, slot);
                if (machine_.halted()) {
                    halted = true;
                    break;
                }
            }
        }
    } else {
        if (inst_count_ >= step_limit_)
            budgetExceeded();
        const isa::Inst &inst = itemInsts_[index];
        ++inst_count_;
        ++event.retired;
        if (inst.isBranch()) {
            execBranch(inst, next_pc, self_pc);
            if (retire_hook_)
                retire_hook_(inst, self_pc, 0);
        } else {
            machine_.execute(inst);
            if (retire_hook_)
                retire_hook_(inst, self_pc, 0);
            halted = machine_.halted();
        }
    }
    event.taken = redirected_;
    stats_.record(event);
    observer.onFetch(event);
    if (halted)
        return false;
    if (!redirected_)
        pc_ = next_pc;
    return true;
}

template <typename Observer>
ExecResult
CompressedCpu::runWith(Observer &observer, uint64_t max_steps)
{
    // The limit is enforced inside the step before every expanded
    // instruction; checking between items here would let a
    // multi-instruction dictionary entry overshoot the budget. The
    // guard restores the unbudgeted default even when a machine check
    // or fatal escapes mid-run, so a caught fault does not leave a
    // stale budget behind for later step()/run() calls.
    struct BudgetGuard
    {
        uint64_t &limit;
        ~BudgetGuard() { limit = UINT64_MAX; }
    } guard{step_limit_};
    step_limit_ = max_steps;
    while (!machine_.halted())
        stepWith(observer);
    return {machine_.output(), machine_.exitCode(), inst_count_};
}

/** Convenience: run a compressed image to completion. */
ExecResult runCompressed(const compress::CompressedImage &image,
                         uint64_t max_steps =
                             CompressedCpu::defaultMaxSteps);

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_COMPRESSED_CPU_HH
