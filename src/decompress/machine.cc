#include "decompress/machine.hh"

#include <sys/mman.h>

#include <new>

#include "decompress/fault.hh"
#include "support/logging.hh"

namespace codecomp {

namespace {

uint8_t *
mapZeroedMemory()
{
    void *mem = mmap(nullptr, Machine::memBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<uint8_t *>(mem);
}

} // namespace

void
Machine::Unmap::operator()(uint8_t *mem) const
{
    munmap(mem, memBytes);
}

Machine::Machine() : mem_(mapZeroedMemory())
{
    gpr_[1] = stackTop;
}

uint32_t
Machine::loadWord(uint32_t addr) const
{
    // Compare without addr + 4, which wraps for addresses near 2^32 and
    // would let a wild access through the check.
    if (addr > memBytes - 4)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, addr,
                                "load word outside the address space");
    return (static_cast<uint32_t>(mem_[addr]) << 24) |
           (static_cast<uint32_t>(mem_[addr + 1]) << 16) |
           (static_cast<uint32_t>(mem_[addr + 2]) << 8) |
           static_cast<uint32_t>(mem_[addr + 3]);
}

uint16_t
Machine::loadHalf(uint32_t addr) const
{
    if (addr > memBytes - 2)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, addr,
                                "load half outside the address space");
    return static_cast<uint16_t>((mem_[addr] << 8) | mem_[addr + 1]);
}

uint8_t
Machine::loadByte(uint32_t addr) const
{
    if (addr >= memBytes)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, addr,
                                "load byte outside the address space");
    return mem_[addr];
}

void
Machine::storeWord(uint32_t addr, uint32_t value)
{
    if (addr > memBytes - 4)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, addr,
                                "store word outside the address space");
    mem_[addr] = static_cast<uint8_t>(value >> 24);
    mem_[addr + 1] = static_cast<uint8_t>(value >> 16);
    mem_[addr + 2] = static_cast<uint8_t>(value >> 8);
    mem_[addr + 3] = static_cast<uint8_t>(value);
    if (store_hook_)
        store_hook_(addr, 4, value);
}

void
Machine::storeHalf(uint32_t addr, uint16_t value)
{
    if (addr > memBytes - 2)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, addr,
                                "store half outside the address space");
    mem_[addr] = static_cast<uint8_t>(value >> 8);
    mem_[addr + 1] = static_cast<uint8_t>(value);
    if (store_hook_)
        store_hook_(addr, 2, value);
}

void
Machine::storeByte(uint32_t addr, uint8_t value)
{
    if (addr >= memBytes)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, addr,
                                "store byte outside the address space");
    mem_[addr] = value;
    if (store_hook_)
        store_hook_(addr, 1, value);
}

void
Machine::loadImage(uint32_t base, const std::vector<uint8_t> &bytes)
{
    if (static_cast<uint64_t>(base) + bytes.size() > memBytes)
        throw MachineCheckError(MachineFault::MemoryOutOfRange, base,
                                "image of " +
                                    std::to_string(bytes.size()) +
                                    " bytes does not fit memory");
    std::copy(bytes.begin(), bytes.end(), mem_.get() + base);
}

void
Machine::setCrField(uint8_t crf, bool lt, bool gt, bool eq)
{
    uint32_t field = (lt ? 8u : 0) | (gt ? 4u : 0) | (eq ? 2u : 0);
    unsigned shift = 28 - crf * 4;
    cr_ = (cr_ & ~(0xfu << shift)) | (field << shift);
}

bool
Machine::evalCond(uint8_t bo, uint8_t bi)
{
    switch (static_cast<isa::Bo>(bo)) {
      case isa::Bo::Always:
        return true;
      case isa::Bo::IfTrue:
        return (cr_ >> (31 - bi)) & 1;
      case isa::Bo::IfFalse:
        return !((cr_ >> (31 - bi)) & 1);
      case isa::Bo::DecNz:
        --ctr_;
        return ctr_ != 0;
    }
    throw MachineCheckError(MachineFault::BadCondition, bo,
                            "unsupported BO value " +
                                std::to_string(int(bo)));
}

void
Machine::doSyscall()
{
    switch (static_cast<isa::Syscall>(gpr_[0])) {
      case isa::Syscall::Exit:
        halted_ = true;
        exit_code_ = static_cast<int32_t>(gpr_[3]);
        return;
      case isa::Syscall::PutChar:
        output_.push_back(static_cast<char>(gpr_[3] & 0xff));
        return;
      case isa::Syscall::PutInt:
        output_ += std::to_string(static_cast<int32_t>(gpr_[3]));
        output_.push_back('\n');
        return;
    }
    throw MachineCheckError(MachineFault::BadSyscall, gpr_[0],
                            "unknown syscall " +
                                std::to_string(gpr_[0]));
}

namespace {

/** rlwinm mask with PowerPC bit numbering (bit 0 = MSB). */
uint32_t
maskMbMe(unsigned mb, unsigned me)
{
    uint32_t lo = 0xffffffffu >> mb;           // bits mb..31 set
    uint32_t hi = 0xffffffffu << (31 - me);    // bits 0..me set
    return (mb <= me) ? (lo & hi) : (lo | hi);
}

uint32_t
rotl32(uint32_t value, unsigned n)
{
    return n == 0 ? value : (value << n) | (value >> (32 - n));
}

} // namespace

void
Machine::execute(const isa::Inst &inst)
{
    using isa::Op;
    CC_ASSERT(!inst.isBranch(), "branches are handled by the fetch loop");

    auto reg_or_zero = [this](uint8_t r) { return r == 0 ? 0u : gpr_[r]; };
    auto ea = [&]() {
        return reg_or_zero(inst.ra) + static_cast<uint32_t>(inst.imm);
    };

    switch (inst.op) {
      case Op::Addi:
        gpr_[inst.rt] = reg_or_zero(inst.ra) +
                        static_cast<uint32_t>(inst.imm);
        return;
      case Op::Addis:
        gpr_[inst.rt] = reg_or_zero(inst.ra) +
                        (static_cast<uint32_t>(inst.imm) << 16);
        return;
      case Op::Mulli:
        gpr_[inst.rt] = gpr_[inst.ra] * static_cast<uint32_t>(inst.imm);
        return;
      case Op::Ori:
        gpr_[inst.rt] = gpr_[inst.ra] | static_cast<uint32_t>(inst.imm);
        return;
      case Op::Oris:
        gpr_[inst.rt] = gpr_[inst.ra] |
                        (static_cast<uint32_t>(inst.imm) << 16);
        return;
      case Op::Xori:
        gpr_[inst.rt] = gpr_[inst.ra] ^ static_cast<uint32_t>(inst.imm);
        return;
      case Op::Andi: {
        uint32_t res = gpr_[inst.ra] & static_cast<uint32_t>(inst.imm);
        gpr_[inst.rt] = res;
        // andi. always records the result in cr0 (PowerPC semantics).
        int32_t s = static_cast<int32_t>(res);
        setCrField(0, s < 0, s > 0, s == 0);
        return;
      }
      case Op::Cmpi: {
        int32_t a = static_cast<int32_t>(gpr_[inst.ra]);
        setCrField(inst.crf, a < inst.imm, a > inst.imm, a == inst.imm);
        return;
      }
      case Op::Cmpli: {
        uint32_t a = gpr_[inst.ra];
        uint32_t b = static_cast<uint32_t>(inst.imm);
        setCrField(inst.crf, a < b, a > b, a == b);
        return;
      }
      case Op::Cmp: {
        int32_t a = static_cast<int32_t>(gpr_[inst.ra]);
        int32_t b = static_cast<int32_t>(gpr_[inst.rb]);
        setCrField(inst.crf, a < b, a > b, a == b);
        return;
      }
      case Op::Cmpl: {
        uint32_t a = gpr_[inst.ra];
        uint32_t b = gpr_[inst.rb];
        setCrField(inst.crf, a < b, a > b, a == b);
        return;
      }
      case Op::Lwz:
        gpr_[inst.rt] = loadWord(ea());
        return;
      case Op::Lbz:
        gpr_[inst.rt] = loadByte(ea());
        return;
      case Op::Lhz:
        gpr_[inst.rt] = loadHalf(ea());
        return;
      case Op::Stw:
        storeWord(ea(), gpr_[inst.rt]);
        return;
      case Op::Stb:
        storeByte(ea(), static_cast<uint8_t>(gpr_[inst.rt]));
        return;
      case Op::Sth:
        storeHalf(ea(), static_cast<uint16_t>(gpr_[inst.rt]));
        return;
      case Op::Lwzx:
        gpr_[inst.rt] = loadWord(reg_or_zero(inst.ra) + gpr_[inst.rb]);
        return;
      case Op::Add:
        gpr_[inst.rt] = gpr_[inst.ra] + gpr_[inst.rb];
        return;
      case Op::Subf:
        gpr_[inst.rt] = gpr_[inst.rb] - gpr_[inst.ra];
        return;
      case Op::Neg:
        gpr_[inst.rt] = 0u - gpr_[inst.ra];
        return;
      case Op::Mullw:
        gpr_[inst.rt] = gpr_[inst.ra] * gpr_[inst.rb];
        return;
      case Op::Divw: {
        int32_t a = static_cast<int32_t>(gpr_[inst.ra]);
        int32_t b = static_cast<int32_t>(gpr_[inst.rb]);
        // Architecturally undefined cases are pinned to 0 so that both
        // processors (and all hosts) agree bit-for-bit.
        if (b == 0 || (a == INT32_MIN && b == -1))
            gpr_[inst.rt] = 0;
        else
            gpr_[inst.rt] = static_cast<uint32_t>(a / b);
        return;
      }
      case Op::And:
        gpr_[inst.rt] = gpr_[inst.ra] & gpr_[inst.rb];
        return;
      case Op::Or:
        gpr_[inst.rt] = gpr_[inst.ra] | gpr_[inst.rb];
        return;
      case Op::Xor:
        gpr_[inst.rt] = gpr_[inst.ra] ^ gpr_[inst.rb];
        return;
      case Op::Slw: {
        uint32_t n = gpr_[inst.rb] & 0x3f;
        gpr_[inst.rt] = n >= 32 ? 0 : gpr_[inst.ra] << n;
        return;
      }
      case Op::Srw: {
        uint32_t n = gpr_[inst.rb] & 0x3f;
        gpr_[inst.rt] = n >= 32 ? 0 : gpr_[inst.ra] >> n;
        return;
      }
      case Op::Sraw: {
        uint32_t n = gpr_[inst.rb] & 0x3f;
        int32_t a = static_cast<int32_t>(gpr_[inst.ra]);
        if (n >= 32)
            gpr_[inst.rt] = static_cast<uint32_t>(a < 0 ? -1 : 0);
        else
            gpr_[inst.rt] = static_cast<uint32_t>(a >> n);
        return;
      }
      case Op::Srawi: {
        int32_t a = static_cast<int32_t>(gpr_[inst.rt]);
        gpr_[inst.ra] = static_cast<uint32_t>(a >> inst.sh);
        return;
      }
      case Op::Rlwinm:
        gpr_[inst.ra] = rotl32(gpr_[inst.rt], inst.sh) &
                        maskMbMe(inst.mb, inst.me);
        return;
      case Op::Mtspr:
        if (inst.spr == static_cast<uint16_t>(isa::Spr::LR))
            lr_ = gpr_[inst.rt];
        else if (inst.spr == static_cast<uint16_t>(isa::Spr::CTR))
            ctr_ = gpr_[inst.rt];
        else
            throw MachineCheckError(MachineFault::BadSpr, inst.spr,
                                    "mtspr to unknown spr " +
                                        std::to_string(inst.spr));
        return;
      case Op::Mfspr:
        if (inst.spr == static_cast<uint16_t>(isa::Spr::LR))
            gpr_[inst.rt] = lr_;
        else if (inst.spr == static_cast<uint16_t>(isa::Spr::CTR))
            gpr_[inst.rt] = ctr_;
        else
            throw MachineCheckError(MachineFault::BadSpr, inst.spr,
                                    "mfspr from unknown spr " +
                                        std::to_string(inst.spr));
        return;
      case Op::Sc:
        doSyscall();
        return;
      default:
        throw MachineCheckError(MachineFault::IllegalInstruction, 0,
                                "instruction word does not decode to an "
                                "executable op");
    }
}

namespace {

constexpr uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t fnvPrime = 0x100000001b3ull;

uint64_t
fnvMix(uint64_t h, uint8_t byte)
{
    return (h ^ byte) * fnvPrime;
}

} // namespace

uint64_t
Machine::stateHash() const
{
    uint64_t h = fnvOffset;
    for (uint32_t r : gpr_)
        for (int i = 0; i < 4; ++i)
            h = fnvMix(h, static_cast<uint8_t>(r >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        h = fnvMix(h, static_cast<uint8_t>(cr_ >> (8 * i)));
    // Note: LR/CTR are deliberately excluded -- they hold code pointers,
    // which legitimately differ between address spaces.
    for (uint8_t byte : memory())
        h = fnvMix(h, byte);
    return h;
}

} // namespace codecomp
