/**
 * @file
 * Reference processor: executes an uncompressed Program directly.
 */

#ifndef CODECOMP_DECOMPRESS_CPU_HH
#define CODECOMP_DECOMPRESS_CPU_HH

#include <vector>

#include "decompress/fetch.hh"
#include "decompress/machine.hh"
#include "program/program.hh"
#include "support/logging.hh"

namespace codecomp {

/**
 * Interpreter for uncompressed ppclite programs. Code pointers (PC, LR,
 * CTR, jump-table entries) are plain byte addresses.
 */
class Cpu
{
  public:
    static constexpr uint64_t defaultMaxSteps = 1ull << 28;

    /** Load .text and .data images, decode .text once, and point the
     *  PC at the entry. */
    explicit Cpu(const Program &program);

    /** Run until exit; fatal if @p max_steps elapse first. */
    ExecResult run(uint64_t max_steps = defaultMaxSteps);

    /** Execute a single instruction; returns false once halted. */
    bool step() { return stepWith(fetch_hook_); }

    const Machine &machine() const { return machine_; }
    /** Mutable access for harnesses that install Machine hooks. */
    Machine &machine() { return machine_; }
    uint32_t pc() const { return pc_; }
    uint64_t instCount() const { return inst_count_; }
    const FetchStats &fetchStats() const { return stats_; }

    /** Observe the fetch stream (fetch.hh); drives cache and timing
     *  models. Every event has bytes == 4 and retired == 1 here. */
    void setFetchHook(FetchHook hook) { fetch_hook_ = std::move(hook); }

  private:
    friend class FetchHook;

    /** The one step body; run(), step() and every hook instantiate it
     *  (fetch.hh). */
    template <typename Observer> bool stepWith(Observer &observer);

    template <typename Observer>
    ExecResult runWith(Observer &observer, uint64_t max_steps);

    /** Raise the fetch-stage machine check for the current PC. */
    [[noreturn]] void fetchFault() const;

    /** Execute branch @p inst at the current PC; returns whether it
     *  was taken. */
    bool execBranch(const isa::Inst &inst);

    /** Machine-check a taken indirect branch target (@p reg names the
     *  source register for the fault message). */
    void checkIndirectTarget(uint32_t target, const char *reg) const;

    const Program &program_;
    std::vector<isa::Inst> text_; //!< .text, decoded at construction
    Machine machine_;
    uint32_t pc_;
    uint64_t inst_count_ = 0;
    FetchStats stats_;
    FetchHook fetch_hook_;
};

template <typename Observer>
bool
Cpu::stepWith(Observer &observer)
{
    if (machine_.halted())
        return false;

    // Fetch-stage machine checks: a corrupt code pointer (jump table,
    // LR, CTR) must trap precisely, never index .text out of bounds.
    // Below textBase the offset wraps, so one compare covers both ends.
    uint32_t offset = pc_ - Program::textBase;
    if (offset >= text_.size() * isa::instBytes ||
        pc_ % isa::instBytes != 0)
        fetchFault();
    const isa::Inst &inst = text_[offset / isa::instBytes];
    ++inst_count_;

    // The fetch event fires after the instruction's effects land so the
    // taken flag is final (fetch.hh); the halting Sc still counts.
    FetchEvent event{pc_, isa::instBytes, 1, false, false};
    bool running = true;
    if (inst.isBranch()) {
        event.taken = execBranch(inst);
    } else {
        machine_.execute(inst);
        pc_ += isa::instBytes;
        running = !machine_.halted();
    }
    stats_.record(event);
    observer.onFetch(event);
    return running;
}

template <typename Observer>
ExecResult
Cpu::runWith(Observer &observer, uint64_t max_steps)
{
    while (!machine_.halted()) {
        if (inst_count_ >= max_steps)
            CC_FATAL("program exceeded ", max_steps, " steps");
        stepWith(observer);
    }
    return {machine_.output(), machine_.exitCode(), inst_count_};
}

/** Convenience wrapper: construct, run, return the result. */
ExecResult runProgram(const Program &program,
                      uint64_t max_steps = Cpu::defaultMaxSteps);

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_CPU_HH
