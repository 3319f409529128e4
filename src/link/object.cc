#include "link/object.hh"

#include "support/serialize.hh"

namespace codecomp::link {

namespace {

constexpr uint32_t moduleMagic = 0x4343434f; // "CCCO"
// v2 sealed the payload in the checksummed envelope.
constexpr uint32_t formatVersion = 2;

/**
 * Everything the linker takes on trust from a module: with these
 * checks, linking loaded modules yields a program Program::validate
 * accepts, so a bad module is a load error, never a linker panic.
 */
std::optional<std::string>
moduleError(const ObjectModule &module)
{
    uint64_t text_count = module.text.size();
    auto at = [](const char *what, uint32_t index) {
        return std::string(what) + " at " + std::to_string(index);
    };
    std::vector<bool> call_site(text_count, false);
    for (const CallReloc &reloc : module.calls) {
        if (reloc.textIndex >= text_count)
            return at("call relocation outside .text", reloc.textIndex);
        isa::Inst inst = isa::decode(module.text[reloc.textIndex]);
        if (inst.op != isa::Op::B || !inst.lk || inst.aa)
            return at("call relocation not on a bl", reloc.textIndex);
        call_site[reloc.textIndex] = true;
    }
    for (const DataReloc &reloc : module.dataRefs) {
        if (reloc.textIndex >= text_count)
            return at("data relocation outside .text", reloc.textIndex);
        if (reloc.dataOffset >= module.data.size())
            return at("data relocation outside .data", reloc.dataOffset);
        isa::Op op = isa::decode(module.text[reloc.textIndex]).op;
        if (!isa::immIsSigned(op))
            return at("data relocation not on a signed immediate",
                      reloc.textIndex);
    }
    for (const TableReloc &reloc : module.tables) {
        if (static_cast<uint64_t>(reloc.dataOffset) + 4 > module.data.size())
            return at("table relocation outside .data", reloc.dataOffset);
        if (reloc.textIndex >= text_count)
            return at("table relocation target outside .text",
                      reloc.textIndex);
    }
    if (std::optional<std::string> detail =
            functionRangeError(module.functions, text_count))
        return detail;
    for (const FunctionSymbol &fn : module.functions)
        if (fn.body.first >= text_count)
            return "function " + fn.name + " has no entry in .text";

    // The linker retargets a call's bl; every other branch must stay
    // inside the module, whose final address is not known here (so an
    // absolute branch has no meaning yet).
    for (uint32_t i = 0; i < text_count; ++i) {
        isa::Inst inst = isa::decode(module.text[i]);
        if (inst.op == isa::Op::Illegal)
            return at("illegal instruction", i);
        int64_t target = static_cast<int64_t>(i) + inst.disp;
        if (inst.isRelativeBranch() && !call_site[i] &&
            (inst.aa || target < 0 ||
             target >= static_cast<int64_t>(text_count)))
            return at("branch leaving the module", i);
    }
    return std::nullopt;
}

} // namespace

std::vector<uint8_t>
saveModule(const ObjectModule &module)
{
    ByteSink sink;
    sink.putString(module.name);

    sink.put32(static_cast<uint32_t>(module.text.size()));
    for (isa::Word word : module.text)
        sink.put32(word);
    sink.putBlob(module.data);

    putFunctions(sink, module.functions);

    sink.put32(static_cast<uint32_t>(module.calls.size()));
    for (const CallReloc &reloc : module.calls) {
        sink.put32(reloc.textIndex);
        sink.putString(reloc.callee);
    }

    sink.put32(static_cast<uint32_t>(module.dataRefs.size()));
    for (const DataReloc &reloc : module.dataRefs) {
        sink.put32(reloc.textIndex);
        sink.put32(reloc.dataOffset);
        sink.put8(static_cast<uint8_t>(reloc.half));
    }

    sink.put32(static_cast<uint32_t>(module.tables.size()));
    for (const TableReloc &reloc : module.tables) {
        sink.put32(reloc.dataOffset);
        sink.put32(reloc.textIndex);
    }
    return sealEnvelope(moduleMagic, formatVersion, sink.bytes());
}

Result<ObjectModule>
tryLoadModule(const std::vector<uint8_t> &bytes)
{
    Result<ObjectModule> module = parseEnvelope(
        bytes, moduleMagic, formatVersion, ".cco module",
        [](ByteSource &source) {
            ObjectModule module;
            module.name = source.getString();
            module.text.resize(source.getCount(4, "instructions"));
            for (isa::Word &word : module.text)
                word = source.get32();
            module.data = source.getBlob();
            module.functions = getFunctions(source);

            module.calls.resize(source.getCount(8, "call relocations"));
            for (CallReloc &reloc : module.calls) {
                reloc.textIndex = source.get32();
                reloc.callee = source.getString();
            }
            module.dataRefs.resize(
                source.getCount(9, "data relocations"));
            for (DataReloc &reloc : module.dataRefs) {
                reloc.textIndex = source.get32();
                reloc.dataOffset = source.get32();
                uint8_t half = source.get8();
                if (half > static_cast<uint8_t>(DataReloc::Half::Lo))
                    source.fail(LoadStatus::BadValue,
                                "bad data relocation kind " +
                                    std::to_string(half));
                reloc.half = static_cast<DataReloc::Half>(half);
            }
            module.tables.resize(
                source.getCount(8, "table relocations"));
            for (TableReloc &reloc : module.tables) {
                reloc.dataOffset = source.get32();
                reloc.textIndex = source.get32();
            }
            return module;
        });
    if (module.ok())
        if (std::optional<std::string> detail =
                moduleError(module.value()))
            return LoadError{LoadStatus::BadValue, 0,
                             "object module " + module.value().name,
                             std::move(*detail)};
    return module;
}

ObjectModule
loadModule(const std::vector<uint8_t> &bytes)
{
    return tryLoadModule(bytes).valueOrThrow();
}

} // namespace codecomp::link
