#include "compress/objfile.hh"

#include "isa/inst.hh"
#include "support/serialize.hh"

namespace codecomp {

namespace {

constexpr uint32_t programMagic = 0x43435052;   // "CCPR"
constexpr uint32_t imageMagic = 0x4343494d;     // "CCIM"
// v2 sealed the payload in the checksummed envelope; v1 files (no
// checksum) are no longer accepted -- nothing outside this repository
// ever produced them.
constexpr uint32_t formatVersion = 2;

} // namespace

std::vector<uint8_t>
saveProgram(const Program &program)
{
    ByteSink sink;
    sink.put32(static_cast<uint32_t>(program.text.size()));
    for (isa::Word word : program.text)
        sink.put32(word);

    sink.putBlob(program.data);

    sink.put32(static_cast<uint32_t>(program.codeRelocs.size()));
    for (const CodeReloc &reloc : program.codeRelocs) {
        sink.put32(reloc.dataOffset);
        sink.put32(reloc.targetIndex);
    }

    putFunctions(sink, program.functions);

    sink.put32(program.entryIndex);
    return sealEnvelope(programMagic, formatVersion, sink.bytes());
}

Result<Program>
tryLoadProgram(const std::vector<uint8_t> &bytes)
{
    Result<Program> program = parseEnvelope(
        bytes, programMagic, formatVersion, ".ccp program",
        [](ByteSource &source) {
            Program program;
            program.text.resize(source.getCount(4, "instructions"));
            for (isa::Word &word : program.text)
                word = source.get32();
            program.data = source.getBlob();
            program.codeRelocs.resize(source.getCount(8, "relocations"));
            for (CodeReloc &reloc : program.codeRelocs) {
                reloc.dataOffset = source.get32();
                reloc.targetIndex = source.get32();
            }
            program.functions = getFunctions(source);
            program.entryIndex = source.get32();
            program.computeDataBase();
            return program;
        });
    if (program.ok())
        if (std::optional<LoadError> error = program.value().validate())
            return *error;
    return program;
}

Program
loadProgram(const std::vector<uint8_t> &bytes)
{
    return tryLoadProgram(bytes).valueOrThrow();
}

std::vector<uint8_t>
saveImage(const compress::CompressedImage &image)
{
    ByteSink sink;
    sink.put8(static_cast<uint8_t>(image.scheme));
    sink.put64(image.textNibbles);
    sink.putBlob(image.text);

    sink.put32(static_cast<uint32_t>(image.entriesByRank.size()));
    compress::schemeCodec(image.scheme)
        .putDictionary(sink, image.entriesByRank);

    sink.putBlob(image.data);
    sink.put32(image.dataBase);
    sink.put32(image.entryPointNibble);
    sink.put32(image.originalTextBytes);
    sink.put32(image.farBranchExpansions);
    return sealEnvelope(imageMagic, formatVersion, sink.bytes());
}

Result<compress::CompressedImage>
tryLoadImage(const std::vector<uint8_t> &bytes)
{
    Result<compress::CompressedImage> image = parseEnvelope(
        bytes, imageMagic, formatVersion, ".cci image",
        [](ByteSource &source) {
            compress::CompressedImage image;
            uint8_t scheme = source.get8();
            const compress::SchemeCodec *codec =
                compress::findSchemeCodec(scheme);
            if (!codec)
                source.fail(LoadStatus::BadValue,
                            "bad scheme byte " + std::to_string(scheme));
            image.scheme = codec->id();
            image.textNibbles = source.get64();
            image.text = source.getBlob();

            uint32_t entries = source.get32();
            if (entries > codec->params().maxCodewords)
                source.fail(
                    LoadStatus::BadValue,
                    std::to_string(entries) +
                        " dictionary entries exceed the scheme ceiling of " +
                        std::to_string(codec->params().maxCodewords));
            if (std::optional<std::string> detail = codec->getDictionary(
                    source, entries, maxImageEntryWords,
                    image.entriesByRank))
                source.fail(LoadStatus::BadValue, std::move(*detail));

            image.data = source.getBlob();
            image.dataBase = source.get32();
            image.entryPointNibble = source.get32();
            image.originalTextBytes = source.get32();
            image.farBranchExpansions = source.get32();
            return image;
        });
    if (image.ok())
        if (std::optional<LoadError> error = validateImage(image.value()))
            return *error;
    return image;
}

compress::CompressedImage
loadImage(const std::vector<uint8_t> &bytes)
{
    return tryLoadImage(bytes).valueOrThrow();
}

std::optional<LoadError>
validateImage(const compress::CompressedImage &image)
{
    auto invalid = [](std::string detail) {
        return LoadError{LoadStatus::BadValue, 0, "compressed image",
                         std::move(detail)};
    };

    const compress::SchemeCodec *codec =
        compress::findSchemeCodec(static_cast<uint8_t>(image.scheme));
    if (!codec)
        return invalid("bad scheme value " +
                       std::to_string(static_cast<int>(image.scheme)));
    const compress::SchemeParams params = codec->params();

    // The byte blob must match the declared nibble count exactly: at
    // most one pad nibble (in the last byte's low half). Anything else
    // would let phantom nibbles reach the decoder.
    if (image.text.size() != (image.textNibbles + 1) / 2)
        return invalid("nibble count " +
                       std::to_string(image.textNibbles) +
                       " does not match stream of " +
                       std::to_string(image.text.size()) + " bytes");
    if (image.textNibbles % 2 != 0 &&
        (image.text.back() & 0x0f) != 0)
        return invalid("nonzero pad nibble after an odd-length stream");

    // Dictionary: ceiling, entry lengths, and entry word legality. A
    // relative branch inside an entry can never execute correctly (the
    // expansion has no stream position of its own), so it is rejected
    // here rather than trapped later.
    if (image.entriesByRank.size() > params.maxCodewords)
        return invalid(std::to_string(image.entriesByRank.size()) +
                       " dictionary entries exceed the scheme ceiling of " +
                       std::to_string(params.maxCodewords));
    for (size_t rank = 0; rank < image.entriesByRank.size(); ++rank) {
        const std::vector<isa::Word> &entry = image.entriesByRank[rank];
        if (entry.empty() || entry.size() > maxImageEntryWords)
            return invalid("dictionary entry " + std::to_string(rank) +
                           " has " + std::to_string(entry.size()) +
                           " words (format allows 1.." +
                           std::to_string(maxImageEntryWords) + ")");
        for (size_t slot = 0; slot < entry.size(); ++slot) {
            isa::Inst inst = isa::decode(entry[slot]);
            if (inst.op == isa::Op::Illegal)
                return invalid("dictionary entry " + std::to_string(rank) +
                               " slot " + std::to_string(slot) +
                               " does not decode to a legal instruction");
            if (inst.isRelativeBranch())
                return invalid("dictionary entry " + std::to_string(rank) +
                               " slot " + std::to_string(slot) +
                               " is a relative branch");
        }
    }

    // Walk the stream exactly as the decompression engine's scan would,
    // but with explicit lookahead so malformed streams produce typed
    // errors instead of machine checks. Collect the item boundaries for
    // the branch-target and entry-point checks below.
    std::vector<bool> boundary(image.textNibbles, false);
    struct StreamBranch
    {
        uint32_t addr;
        int32_t disp;
    };
    std::vector<StreamBranch> branches;
    NibbleReader reader(image.text.data(), image.textNibbles);
    while (!reader.atEnd()) {
        uint32_t addr = static_cast<uint32_t>(reader.pos());
        if (!codec->peekItemNibbles(reader))
            return invalid("stream ends mid-item at nibble " +
                           std::to_string(addr));
        boundary[addr] = true;
        auto rank = codec->decodeCodeword(reader);
        if (rank) {
            if (*rank >= image.entriesByRank.size())
                return invalid("codeword at nibble " +
                               std::to_string(addr) + " names rank " +
                               std::to_string(*rank) +
                               " beyond the dictionary of " +
                               std::to_string(image.entriesByRank.size()) +
                               " entries");
            continue;
        }
        isa::Word word = reader.getWord();
        isa::Inst inst = isa::decode(word);
        if (inst.op == isa::Op::Illegal)
            return invalid("stream instruction at nibble " +
                           std::to_string(addr) +
                           " does not decode to a legal instruction");
        if (inst.isRelativeBranch())
            branches.push_back({addr, inst.disp});
    }

    if (image.entryPointNibble >= image.textNibbles ||
        !boundary[image.entryPointNibble])
        return invalid("entry point nibble " +
                       std::to_string(image.entryPointNibble) +
                       " is not an item boundary");

    for (const StreamBranch &branch : branches) {
        int64_t target = static_cast<int64_t>(branch.addr) +
                         static_cast<int64_t>(branch.disp) *
                             params.unitNibbles;
        if (target < 0 ||
            target >= static_cast<int64_t>(image.textNibbles) ||
            !boundary[static_cast<size_t>(target)])
            return invalid("branch at nibble " +
                           std::to_string(branch.addr) + " targets nibble " +
                           std::to_string(target) +
                           ", not an item boundary");
    }

    if (static_cast<uint64_t>(image.dataBase) + image.data.size() >
        isa::addressSpaceBytes)
        return invalid(".data of " + std::to_string(image.data.size()) +
                       " bytes at base " + std::to_string(image.dataBase) +
                       " does not fit the address space");

    return std::nullopt;
}

} // namespace codecomp
