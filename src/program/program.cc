#include "program/program.hh"

#include "support/logging.hh"

namespace codecomp {

namespace {

/** Target instruction index of the B/Bc @p inst at @p index; an
 *  absolute branch's byte address is disp * 4. */
int64_t
targetOf(const isa::Inst &inst, uint32_t index)
{
    if (inst.aa)
        return (static_cast<int64_t>(inst.disp) * 4 - Program::textBase) /
               isa::instBytes;
    return static_cast<int64_t>(index) + inst.disp;
}

} // namespace

void
putFunctions(ByteSink &sink, const std::vector<FunctionSymbol> &functions)
{
    auto putRange = [&sink](const InstRange &range) {
        sink.put32(range.first);
        sink.put32(range.count);
    };
    sink.put32(static_cast<uint32_t>(functions.size()));
    for (const FunctionSymbol &fn : functions) {
        sink.putString(fn.name);
        putRange(fn.body);
        putRange(fn.prologue);
        sink.put32(static_cast<uint32_t>(fn.epilogues.size()));
        for (const InstRange &ep : fn.epilogues)
            putRange(ep);
    }
}

std::vector<FunctionSymbol>
getFunctions(ByteSource &source)
{
    // A braced list reads its fields left to right: first, then count.
    auto getRange = [&source] {
        return InstRange{source.get32(), source.get32()};
    };
    // Name length, body, prologue and epilogue count: 24 bytes at least.
    std::vector<FunctionSymbol> functions(source.getCount(24, "functions"));
    for (FunctionSymbol &fn : functions) {
        fn.name = source.getString();
        fn.body = getRange();
        fn.prologue = getRange();
        fn.epilogues.resize(source.getCount(8, "epilogues"));
        for (InstRange &ep : fn.epilogues)
            ep = getRange();
    }
    return functions;
}

std::optional<std::string>
functionRangeError(const std::vector<FunctionSymbol> &functions,
                   uint64_t textCount)
{
    for (const FunctionSymbol &fn : functions) {
        if (static_cast<uint64_t>(fn.body.first) + fn.body.count >
            textCount)
            return "function " + fn.name + " outside .text";
        auto inside = [&fn](const InstRange &r) {
            return r.first >= fn.body.first &&
                   static_cast<uint64_t>(r.first) + r.count <=
                       static_cast<uint64_t>(fn.body.first) +
                           fn.body.count;
        };
        if (fn.prologue.count != 0 && !inside(fn.prologue))
            return "prologue outside function " + fn.name;
        for (const InstRange &ep : fn.epilogues)
            if (!inside(ep))
                return "epilogue outside function " + fn.name;
    }
    return std::nullopt;
}

uint32_t
Program::indexOfAddr(uint32_t addr) const
{
    CC_ASSERT(addr >= textBase && addr < textBase + textBytes(),
              "address not in .text: ", addr);
    CC_ASSERT(addr % isa::instBytes == 0, "misaligned text address");
    return (addr - textBase) / isa::instBytes;
}

uint32_t
Program::branchTargetIndex(uint32_t index) const
{
    isa::Inst inst = isa::decode(text.at(index));
    CC_ASSERT(inst.isRelativeBranch(), "not a relative branch at ", index);
    int64_t target = targetOf(inst, index);
    CC_ASSERT(target >= 0 && target < static_cast<int64_t>(text.size()),
              "branch target out of range at ", index);
    return static_cast<uint32_t>(target);
}

void
Program::computeDataBase()
{
    uint32_t text_end = textBase + textBytes();
    dataBase = (text_end + dataAlign - 1) / dataAlign * dataAlign;
}

void
Program::finalize()
{
    computeDataBase();
    if (std::optional<LoadError> error = validate())
        CC_PANIC("invalid program: ", error->message());
}

std::optional<LoadError>
Program::validate() const
{
    auto invalid = [](std::string detail) {
        return LoadError{LoadStatus::BadValue, 0, "program",
                         std::move(detail)};
    };

    // All size arithmetic in 64 bits: untrusted 32-bit counts must not
    // be allowed to wrap any of these comparisons.
    uint64_t text_count = text.size();
    uint64_t text_end = textBase + text_count * isa::instBytes;
    if (text_end > isa::addressSpaceBytes)
        return invalid(".text of " + std::to_string(text_count) +
                       " instructions does not fit the address space");
    uint64_t data_end = (text_end + dataAlign - 1) / dataAlign *
                            dataAlign +
                        data.size();
    if (data_end > isa::addressSpaceBytes)
        return invalid(".data of " + std::to_string(data.size()) +
                       " bytes does not fit the address space");

    if (entryIndex >= text_count)
        return invalid("entry point index " + std::to_string(entryIndex) +
                       " out of range");

    for (uint32_t i = 0; i < text.size(); ++i) {
        isa::Inst inst = isa::decode(text[i]);
        if (inst.op == isa::Op::Illegal)
            return invalid("illegal instruction in .text at index " +
                           std::to_string(i));
        if (!inst.isRelativeBranch())
            continue;
        int64_t target = targetOf(inst, i);
        if (target < 0 || target >= static_cast<int64_t>(text_count))
            return invalid("branch target out of range at index " +
                           std::to_string(i));
    }

    for (const CodeReloc &reloc : codeRelocs) {
        if (reloc.dataOffset > data.size() ||
            data.size() - reloc.dataOffset < 4)
            return invalid("code reloc outside .data at offset " +
                           std::to_string(reloc.dataOffset));
        if (reloc.targetIndex >= text_count)
            return invalid("code reloc target outside .text: index " +
                           std::to_string(reloc.targetIndex));
    }

    if (std::optional<std::string> detail =
            functionRangeError(functions, text_count))
        return invalid(std::move(*detail));
    return std::nullopt;
}

} // namespace codecomp
