#include "decompress/cpu.hh"

#include "decompress/fault.hh"
#include "support/logging.hh"

namespace codecomp {

namespace {

std::vector<uint8_t>
textImage(const Program &program)
{
    std::vector<uint8_t> bytes;
    bytes.reserve(program.text.size() * 4);
    for (isa::Word w : program.text) {
        bytes.push_back(static_cast<uint8_t>(w >> 24));
        bytes.push_back(static_cast<uint8_t>(w >> 16));
        bytes.push_back(static_cast<uint8_t>(w >> 8));
        bytes.push_back(static_cast<uint8_t>(w));
    }
    return bytes;
}

} // namespace

/** Validate a taken indirect branch target at the branch itself, so a
 *  corrupt LR/CTR is attributed to the branch that consumed it (range
 *  first, then alignment -- the same order the CompressedCpu's
 *  item-boundary check fails in). */
void
Cpu::checkIndirectTarget(uint32_t target, const char *reg) const
{
    uint32_t text_end = Program::textBase + program_.textBytes();
    if (target < Program::textBase || target >= text_end)
        throw MachineCheckError(MachineFault::FetchOutOfText, target,
                                std::string(reg) +
                                    " as branch target outside .text");
    if ((target & 3u) != 0)
        throw MachineCheckError(MachineFault::MisalignedPc, target,
                                std::string("misaligned ") + reg +
                                    " as branch target");
}

Cpu::Cpu(const Program &program) : program_(program)
{
    CC_ASSERT(program.dataBase != 0, "program not finalized");
    machine_.loadImage(Program::textBase, textImage(program));
    // isa::decode is total, so decoding eagerly cannot fault where
    // decoding at fetch would not; .text is immutable once loaded.
    text_.reserve(program.text.size());
    for (isa::Word word : program.text)
        text_.push_back(isa::decode(word));

    // Patch jump-table slots with byte addresses of their targets, then
    // load .data.
    std::vector<uint8_t> data = program.data;
    for (const CodeReloc &reloc : program.codeRelocs) {
        uint32_t addr = program.addrOfIndex(reloc.targetIndex);
        data[reloc.dataOffset] = static_cast<uint8_t>(addr >> 24);
        data[reloc.dataOffset + 1] = static_cast<uint8_t>(addr >> 16);
        data[reloc.dataOffset + 2] = static_cast<uint8_t>(addr >> 8);
        data[reloc.dataOffset + 3] = static_cast<uint8_t>(addr);
    }
    machine_.loadImage(program.dataBase, data);

    pc_ = program.addrOfIndex(program.entryIndex);
    // A return from the entry function with an empty call stack would
    // jump to LR = 0; the entry code always exits via syscall instead.
}

void
Cpu::fetchFault() const
{
    if (pc_ < Program::textBase ||
        pc_ >= Program::textBase + program_.textBytes())
        throw MachineCheckError(MachineFault::FetchOutOfText, pc_,
                                "PC outside .text");
    throw MachineCheckError(MachineFault::MisalignedPc, pc_,
                            "PC not instruction aligned");
}

bool
Cpu::execBranch(const isa::Inst &inst)
{
    uint32_t next_pc = pc_ + isa::instBytes;
    bool taken;
    uint32_t target = 0;
    switch (inst.op) {
      case isa::Op::B:
        taken = true;
        target = inst.aa ? static_cast<uint32_t>(inst.disp) * 4
                         : pc_ + static_cast<uint32_t>(inst.disp) * 4;
        break;
      case isa::Op::Bc:
        taken = machine_.evalCond(inst.bo, inst.bi);
        target = inst.aa ? static_cast<uint32_t>(inst.disp) * 4
                         : pc_ + static_cast<uint32_t>(inst.disp) * 4;
        break;
      // Indirect targets are used raw, not masked to word alignment:
      // the CompressedCpu cannot mask (its nibble-granular code pointers
      // are legitimately odd), so masking here would hide on the native
      // side exactly the corrupt-LR/CTR bugs a lockstep comparison
      // exists to catch. The invariant is that code pointers entering
      // LR/CTR are always 4-byte aligned in the native space; raise a
      // machine check instead of silently repairing a violation. Only a
      // *taken* branch consumes the pointer -- both processors validate
      // at that point and nowhere earlier, so lockstep fault
      // attribution is symmetric (a stale garbage LR under an untaken
      // bclr is dead data, not a fault).
      case isa::Op::Bclr:
        taken = machine_.evalCond(inst.bo, inst.bi);
        target = machine_.lr();
        if (taken)
            checkIndirectTarget(target, "LR");
        break;
      case isa::Op::Bcctr:
        taken = machine_.evalCond(inst.bo, inst.bi);
        target = machine_.ctr();
        if (taken)
            checkIndirectTarget(target, "CTR");
        break;
      default:
        CC_PANIC("unexpected branch op");
    }
    if (inst.lk)
        machine_.setLr(next_pc);
    pc_ = taken ? target : next_pc;
    return taken;
}

ExecResult
Cpu::run(uint64_t max_steps)
{
    if (fetch_hook_.runCpu_)
        return fetch_hook_.runCpu_(fetch_hook_.observer_, *this, max_steps);
    if (fetch_hook_.each_)
        return runWith(fetch_hook_, max_steps);
    NoFetchObserver none;
    return runWith(none, max_steps);
}

ExecResult
runProgram(const Program &program, uint64_t max_steps)
{
    Cpu cpu(program);
    return cpu.run(max_steps);
}

} // namespace codecomp
