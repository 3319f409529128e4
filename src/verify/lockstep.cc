#include "verify/lockstep.hh"

#include <cstdio>
#include <cstring>
#include <deque>
#include <sstream>

#include "isa/disasm.hh"
#include "support/logging.hh"

namespace codecomp::verify {

namespace {

/** Internal control-flow escape; deliberately not a std::exception. */
struct StopRun
{};

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return buf;
}

/**
 * The lockstep driver. Owns both processors and all comparison state;
 * runLockstep constructs one per call.
 */
class Verifier
{
  public:
    Verifier(const Program &program,
             const compress::CompressedImage &image,
             const LockstepConfig &config)
        : program_(program), image_(image), config_(config),
          native_(program), compressed_(image)
    {
        buildItemMaps();
        // r2 is the far-branch scratch register: stubs clobber it with
        // target-address halves that exist only in the compressed
        // space, so it is incomparable whenever stubs were emitted.
        excludeR2_ = image.farBranchExpansions > 0;
    }

    LockstepResult run();

  private:
    static constexpr uint32_t noIndex = UINT32_MAX;
    static constexpr uint32_t base_ = compress::CompressedImage::nibbleBase;

    void buildItemMaps();
    bool equalOrMapped(uint32_t native_val, uint32_t compressed_val) const;

    void onRetire(const isa::Inst &inst, uint32_t item_pc, unsigned slot);
    void pairedRetire(const isa::Inst &inst, uint32_t item_pc,
                      unsigned slot, uint32_t orig_index, bool is_codeword,
                      uint32_t rank);
    void stepNative();
    void compareState(const isa::Inst &inst, bool synthetic_group);
    void compareStores();
    void compareOutput();
    void fullStateCheck(const char *when);

    void recordCompressed(const isa::Inst &inst, uint32_t item_pc,
                          unsigned slot, bool synthetic, bool is_codeword,
                          uint32_t rank);
    void capture(const char *kind, const std::string &detail);
    [[noreturn]] void captureStop(const char *kind,
                                  const std::string &detail);
    std::vector<std::string> formatWindow(
        const std::deque<RetiredInst> &window, bool compressed) const;

    const Program &program_;
    const compress::CompressedImage &image_;
    LockstepConfig config_;
    Cpu native_;
    CompressedCpu compressed_;

    /** Per decoded item: the original instruction index that begins
     *  there, or noIndex for far-branch stub continuations. */
    std::vector<uint32_t> origOf_;
    std::vector<bool> isStub_;      //!< item is part of a stub group
    std::vector<uint32_t> stubEnd_; //!< head item -> one-past-end nibble
    /** Original instruction index -> absolute compressed code pointer. */
    std::vector<uint32_t> addrToNibble_;

    bool excludeR2_ = false;
    bool ctrPoisoned_ = false; //!< stub mtctr ran; CTR incomparable
    bool inStub_ = false;
    uint32_t stubOrig_ = noIndex; //!< orig index of the stub's branch
    uint32_t stubStart_ = 0, stubEndNibble_ = 0;

    struct Store
    {
        uint32_t addr;
        unsigned bytes;
        uint32_t value;
    };
    std::vector<Store> nativeStores_, compressedStores_;
    size_t outputCursor_ = 0;

    std::deque<RetiredInst> nativeWindow_, compressedWindow_;
    uint64_t nativeSeq_ = 0, compressedSeq_ = 0;

    LockstepResult result_;
    bool stopped_ = false;
};

void
Verifier::buildItemMaps()
{
    const DecompressionEngine &engine = compressed_.engine();
    const std::vector<DecodedItem> &items = engine.items();

    origOf_.assign(items.size(), noIndex);
    for (const auto &[orig, nibble] : image_.addrMap)
        origOf_[engine.itemIndexAt(nibble)] = orig;

    isStub_.assign(items.size(), false);
    stubEnd_.assign(items.size(), 0);
    uint32_t head = noIndex;
    for (uint32_t i = 0; i < items.size(); ++i) {
        if (origOf_[i] != noIndex) {
            head = i;
            continue;
        }
        // An unmapped item is a stub continuation; the preceding mapped
        // item is the stub head that inherited the branch's identity.
        isStub_[i] = true;
        CC_ASSERT(head != noIndex, "compressed stream begins mid-stub");
        isStub_[head] = true;
        stubEnd_[head] = items[i].nibbleAddr + items[i].nibbles;
    }

    addrToNibble_.assign(program_.text.size(), noIndex);
    for (const auto &[orig, nibble] : image_.addrMap)
        addrToNibble_[orig] = base_ + nibble;
}

/**
 * Value equality modulo the code-pointer mapping: a native byte address
 * of instruction i corresponds to the compressed nibble address of the
 * item that begins at i. Non-code values must match exactly.
 */
bool
Verifier::equalOrMapped(uint32_t native_val, uint32_t compressed_val) const
{
    if (native_val == compressed_val)
        return true;
    if (native_val < Program::textBase || (native_val & 3u) != 0)
        return false;
    uint32_t index = (native_val - Program::textBase) / isa::instBytes;
    if (index >= addrToNibble_.size())
        return false;
    return addrToNibble_[index] == compressed_val;
}

void
Verifier::recordCompressed(const isa::Inst &inst, uint32_t item_pc,
                           unsigned slot, bool synthetic, bool is_codeword,
                           uint32_t rank)
{
    RetiredInst r;
    r.seq = ++compressedSeq_;
    r.pc = item_pc;
    r.inst = inst;
    r.slot = slot;
    r.synthetic = synthetic;
    r.isCodeword = is_codeword;
    r.rank = rank;
    compressedWindow_.push_back(r);
    if (compressedWindow_.size() > config_.window)
        compressedWindow_.pop_front();
}

std::vector<std::string>
Verifier::formatWindow(const std::deque<RetiredInst> &window,
                       bool compressed) const
{
    std::vector<std::string> lines;
    lines.reserve(window.size());
    for (const RetiredInst &r : window) {
        std::ostringstream os;
        os << "#" << r.seq << " pc=" << hex32(r.pc);
        if (compressed) {
            if (r.isCodeword)
                os << " slot " << r.slot << " of codeword rank " << r.rank;
            os << ": " << isa::disassemble(r.inst, 0);
            if (r.synthetic)
                os << " [far-branch stub]";
        } else {
            os << ": " << isa::disassemble(r.inst, r.pc);
        }
        lines.push_back(os.str());
    }
    return lines;
}

void
Verifier::capture(const char *kind, const std::string &detail)
{
    Divergence d;
    d.kind = kind;
    d.detail = detail;
    d.atInst = result_.verifiedInsts;
    d.nativeWindow = formatWindow(nativeWindow_, false);
    d.compressedWindow = formatWindow(compressedWindow_, true);
    result_.divergences.push_back(std::move(d));
    if (result_.divergences.size() >= config_.maxDivergences) {
        stopped_ = true;
        throw StopRun{};
    }
}

void
Verifier::captureStop(const char *kind, const std::string &detail)
{
    Divergence d;
    d.kind = kind;
    d.detail = detail;
    d.atInst = result_.verifiedInsts;
    d.nativeWindow = formatWindow(nativeWindow_, false);
    d.compressedWindow = formatWindow(compressedWindow_, true);
    result_.divergences.push_back(std::move(d));
    stopped_ = true;
    throw StopRun{};
}

/** Retire hook body: every compressed instruction comes through here. */
void
Verifier::onRetire(const isa::Inst &inst, uint32_t item_pc, unsigned slot)
{
    if (result_.verifiedInsts + result_.syntheticInsts >= config_.maxSteps)
        captureStop("max-steps",
                    "compressed side retired more than " +
                        std::to_string(config_.maxSteps) +
                        " instructions without exiting");

    uint32_t item_index = compressed_.engine().itemIndexAt(item_pc - base_);
    const DecodedItem &item = compressed_.engine().items()[item_index];

    if (isStub_[item_index]) {
        ++result_.syntheticInsts;
        recordCompressed(inst, item_pc, slot, true, item.isCodeword,
                         item.rank);
        if (inst.op == isa::Op::Mtspr &&
            inst.spr == static_cast<uint16_t>(isa::Spr::CTR)) {
            ctrPoisoned_ = true;
        }
        return;
    }
    pairedRetire(inst, item_pc, slot, origOf_[item_index], item.isCodeword,
                 item.rank);
}

void
Verifier::pairedRetire(const isa::Inst &inst, uint32_t item_pc,
                       unsigned slot, uint32_t orig_index, bool is_codeword,
                       uint32_t rank)
{
    recordCompressed(inst, item_pc, slot, false, is_codeword, rank);
    CC_ASSERT(orig_index != noIndex, "paired retire on unmapped item");

    uint32_t expected = program_.addrOfIndex(orig_index + slot);
    if (native_.pc() != expected)
        captureStop("pc-map",
                    "native pc " + hex32(native_.pc()) +
                        " != " + hex32(expected) +
                        " expected for original instruction " +
                        std::to_string(orig_index + slot));

    // The compressed stream must reproduce the original words exactly,
    // except relative branches, whose displacement field is re-encoded
    // at codeword granularity (their semantics are checked by the next
    // pc-map comparison instead).
    if (!inst.isRelativeBranch()) {
        isa::Word original = program_.text[orig_index + slot];
        isa::Word retired = isa::encode(inst);
        if (retired != original)
            capture("inst-word",
                    "retired word " + hex32(retired) +
                        " differs from original " + hex32(original) +
                        " at instruction " +
                        std::to_string(orig_index + slot) +
                        (is_codeword ? " (dictionary rank " +
                                           std::to_string(rank) + ")"
                                     : ""));
    }

    stepNative();

    if (!inStub_ && inst.op == isa::Op::Mtspr &&
        inst.spr == static_cast<uint16_t>(isa::Spr::CTR)) {
        // A genuine mtctr overwrites whatever a far-branch stub left in
        // CTR on both sides; the register is comparable again.
        ctrPoisoned_ = false;
    }
    compareState(inst, false);

    ++result_.verifiedInsts;
    if (config_.fullCheckInterval != 0 &&
        result_.verifiedInsts % config_.fullCheckInterval == 0) {
        fullStateCheck("interval");
    }
}

void
Verifier::stepNative()
{
    uint32_t index = program_.indexOfAddr(native_.pc());
    RetiredInst r;
    r.seq = ++nativeSeq_;
    r.pc = native_.pc();
    r.inst = isa::decode(program_.text[index]);
    nativeWindow_.push_back(r);
    if (nativeWindow_.size() > config_.window)
        nativeWindow_.pop_front();

    try {
        native_.step();
    } catch (const MachineCheckError &e) {
        captureStop("native-fault", e.what());
    } catch (const PanicError &e) {
        captureStop("native-panic", e.what());
    }
}

void
Verifier::compareState(const isa::Inst &inst, bool synthetic_group)
{
    const Machine &nm = native_.machine();
    const Machine &cm = compressed_.machine();
    // Only a captured divergence reads this text, so the clean path
    // never disassembles.
    auto after = [&inst, synthetic_group] {
        return " after " + isa::disassemble(inst, 0) +
               (synthetic_group ? " (far-branch stub boundary)" : "");
    };

    for (unsigned n = 0; n < isa::numGprs; ++n) {
        if (excludeR2_ && n == 2)
            continue;
        if (!equalOrMapped(nm.gpr(n), cm.gpr(n)))
            capture("gpr", "r" + std::to_string(n) + " native " +
                               hex32(nm.gpr(n)) + " vs compressed " +
                               hex32(cm.gpr(n)) + after());
    }
    if (nm.cr() != cm.cr())
        capture("cr", "CR native " + hex32(nm.cr()) + " vs compressed " +
                          hex32(cm.cr()) + after());
    if (!equalOrMapped(nm.lr(), cm.lr()))
        capture("lr", "LR native " + hex32(nm.lr()) + " vs compressed " +
                          hex32(cm.lr()) + after());
    if (!ctrPoisoned_ && !equalOrMapped(nm.ctr(), cm.ctr()))
        capture("ctr", "CTR native " + hex32(nm.ctr()) +
                           " vs compressed " + hex32(cm.ctr()) + after());

    compareStores();
    compareOutput();

    if (nm.halted() != cm.halted())
        captureStop("halt", nm.halted()
                                ? "native halted, compressed running"
                                : "compressed halted, native running");
}

void
Verifier::compareStores()
{
    if (nativeStores_.size() != compressedStores_.size()) {
        capture("store", "store count native " +
                             std::to_string(nativeStores_.size()) +
                             " vs compressed " +
                             std::to_string(compressedStores_.size()));
        nativeStores_.clear();
        compressedStores_.clear();
        return;
    }
    for (size_t i = 0; i < nativeStores_.size(); ++i) {
        const Store &ns = nativeStores_[i];
        const Store &cs = compressedStores_[i];
        bool value_ok = ns.bytes == 4 ? equalOrMapped(ns.value, cs.value)
                                      : ns.value == cs.value;
        if (ns.addr != cs.addr || ns.bytes != cs.bytes || !value_ok)
            capture("store",
                    "store native [" + hex32(ns.addr) + " x" +
                        std::to_string(ns.bytes) + "] = " + hex32(ns.value) +
                        " vs compressed [" + hex32(cs.addr) + " x" +
                        std::to_string(cs.bytes) + "] = " + hex32(cs.value));
    }
    nativeStores_.clear();
    compressedStores_.clear();
}

void
Verifier::compareOutput()
{
    const std::string &no = native_.machine().output();
    const std::string &co = compressed_.machine().output();
    size_t common = std::min(no.size(), co.size());
    if (common > outputCursor_ &&
        std::memcmp(no.data() + outputCursor_, co.data() + outputCursor_,
                    common - outputCursor_) != 0) {
        capture("output", "output bytes differ after verified prefix of " +
                              std::to_string(outputCursor_) + " bytes");
    }
    outputCursor_ = common;
    if (no.size() != co.size())
        capture("output", "output length native " +
                              std::to_string(no.size()) +
                              " vs compressed " +
                              std::to_string(co.size()));
}

/**
 * Joint walk of both memories, skipping the native .text window (the
 * compressed machine keeps no bytes there). Mismatching aligned words
 * are accepted iff they are pointer-equivalent: patched jump-table
 * slots and stack-saved LR values legitimately differ between spaces.
 * One memcmp per region settles the common clean case; only a region
 * whose bytes differ is walked.
 */
void
Verifier::fullStateCheck(const char *when)
{
    ++result_.fullStateChecks;
    const Machine &nm = native_.machine();
    const Machine &cm = compressed_.machine();
    std::span<const uint8_t> nmem = nm.memory();
    std::span<const uint8_t> cmem = cm.memory();

    uint32_t text_end = Program::textBase + program_.textBytes();
    const std::pair<uint32_t, uint32_t> regions[2] = {
        {0, Program::textBase}, {text_end, Machine::memBytes}};

    for (const auto &[begin, end] : regions) {
        if (std::memcmp(nmem.data() + begin, cmem.data() + begin,
                        end - begin) == 0)
            continue;
        uint32_t addr = begin;
        while (addr < end) {
            if (nmem[addr] == cmem[addr]) {
                ++addr;
                continue;
            }
            uint32_t w = addr & ~3u;
            uint32_t nv = nm.loadWord(w);
            uint32_t cv = cm.loadWord(w);
            if (equalOrMapped(nv, cv)) {
                addr = w + 4;
                continue;
            }
            capture("memory",
                    std::string("memory word at ") + hex32(w) +
                        " native " + hex32(nv) + " vs compressed " +
                        hex32(cv) + " (" + when + " check)");
            addr = w + 4;
        }
    }
}

LockstepResult
Verifier::run()
{
    // Panics from either processor (possible under fault injection)
    // become reportable divergences instead of aborting the process.
    PanicTrap trap;

    native_.machine().setStoreHook(
        [this](uint32_t addr, unsigned bytes, uint32_t value) {
            nativeStores_.push_back({addr, bytes, value});
        });
    compressed_.machine().setStoreHook(
        [this](uint32_t addr, unsigned bytes, uint32_t value) {
            compressedStores_.push_back({addr, bytes, value});
        });
    compressed_.setRetireHook(
        [this](const isa::Inst &inst, uint32_t item_pc, unsigned slot) {
            onRetire(inst, item_pc, slot);
        });

    try {
        fullStateCheck("entry");

        while (!native_.machine().halted() &&
               !compressed_.machine().halted()) {
            uint32_t pc_nibble = compressed_.pc() - base_;
            uint32_t item_index;
            try {
                item_index = compressed_.engine().itemIndexAt(pc_nibble);
            } catch (const MachineCheckError &e) {
                captureStop("compressed-fault", e.what());
            } catch (const PanicError &e) {
                captureStop("compressed-panic", e.what());
            }

            if (inStub_ && (pc_nibble < stubStart_ ||
                            pc_nibble >= stubEndNibble_)) {
                // Control left the stub group: the native side now
                // performs the one original branch the stub replaced.
                inStub_ = false;
                uint32_t expected = program_.addrOfIndex(stubOrig_);
                if (native_.pc() != expected)
                    captureStop("pc-map",
                                "native pc " + hex32(native_.pc()) +
                                    " != " + hex32(expected) +
                                    " at far-branch stub for original "
                                    "instruction " +
                                    std::to_string(stubOrig_));
                isa::Inst branch = isa::decode(program_.text[stubOrig_]);
                stepNative();
                compareState(branch, true);
                ++result_.verifiedInsts;
                ++result_.stubTraversals;
                continue;
            }

            if (!inStub_ && isStub_[item_index]) {
                if (origOf_[item_index] == noIndex)
                    captureStop("pc-map",
                                "compressed control entered a far-branch "
                                "stub body at nibble " +
                                    hex32(compressed_.pc()));
                inStub_ = true;
                stubOrig_ = origOf_[item_index];
                stubStart_ = pc_nibble;
                stubEndNibble_ = stubEnd_[item_index];
                CC_ASSERT(stubEndNibble_ > stubStart_,
                          "stub head without continuation");
            }

            try {
                compressed_.step();
            } catch (const MachineCheckError &e) {
                captureStop("compressed-fault", e.what());
            } catch (const PanicError &e) {
                captureStop("compressed-panic", e.what());
            } catch (const std::runtime_error &e) {
                captureStop("compressed-panic", e.what());
            }
        }

        // Clean exit path: both sides must agree they are done, on the
        // exit code, on the full output, and on all of memory.
        if (native_.machine().halted() != compressed_.machine().halted())
            capture("halt", native_.machine().halted()
                                ? "native halted, compressed running"
                                : "compressed halted, native running");
        if (native_.machine().exitCode() !=
            compressed_.machine().exitCode())
            capture("halt",
                    "exit code native " +
                        std::to_string(native_.machine().exitCode()) +
                        " vs compressed " +
                        std::to_string(compressed_.machine().exitCode()));
        if (native_.machine().output() != compressed_.machine().output())
            capture("output", "final outputs differ");
        fullStateCheck("exit");
    } catch (const StopRun &) {
        // Divergence budget exhausted; fall through to the summary.
    }

    result_.nativeHalted = native_.machine().halted();
    result_.compressedHalted = compressed_.machine().halted();
    result_.native = {native_.machine().output(),
                      native_.machine().exitCode(), native_.instCount()};
    result_.compressed = {compressed_.machine().output(),
                          compressed_.machine().exitCode(),
                          compressed_.instCount()};
    return result_;
}

} // namespace

LockstepResult
runLockstep(const Program &program, const compress::CompressedImage &image,
            const LockstepConfig &config)
{
    Verifier verifier(program, image, config);
    return verifier.run();
}

std::string
formatDivergence(const Divergence &divergence)
{
    std::ostringstream os;
    os << "divergence[" << divergence.kind << "] at verified instruction "
       << divergence.atInst << ": " << divergence.detail << "\n";
    os << "  native window (byte PCs):\n";
    for (const std::string &line : divergence.nativeWindow)
        os << "    " << line << "\n";
    os << "  compressed window (nibble PCs):\n";
    for (const std::string &line : divergence.compressedWindow)
        os << "    " << line << "\n";
    return os.str();
}

std::string
formatReport(const LockstepResult &result)
{
    std::ostringstream os;
    if (result.ok()) {
        os << "LOCKSTEP OK: " << result.verifiedInsts
           << " instructions verified (" << result.syntheticInsts
           << " synthetic, " << result.fullStateChecks
           << " full state checks)\n";
    } else {
        os << "LOCKSTEP FAILED: " << result.divergences.size()
           << " divergence(s), " << result.verifiedInsts
           << " instructions verified (" << result.syntheticInsts
           << " synthetic)\n";
        for (const Divergence &d : result.divergences)
            os << formatDivergence(d);
    }
    return os.str();
}

} // namespace codecomp::verify
