/**
 * @file
 * Linked-program representation: the unit the compressor operates on.
 *
 * A Program is the output of the SDTS compiler's linker: one .text
 * section of 32-bit instruction words, one .data section of bytes
 * (globals and jump tables), function symbols with prologue/epilogue
 * metadata (for the Table 3 analysis), and code-address relocations
 * marking .data words that hold code addresses (jump-table slots that
 * must be re-patched after compression, paper section 3.2.1).
 */

#ifndef CODECOMP_PROGRAM_PROGRAM_HH
#define CODECOMP_PROGRAM_PROGRAM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "isa/inst.hh"
#include "support/serialize.hh"

namespace codecomp {

/** A .data word that holds the address of an instruction. */
struct CodeReloc
{
    uint32_t dataOffset;  //!< byte offset of the 32-bit slot in .data
    uint32_t targetIndex; //!< instruction index in .text
};

/** An instruction-index range [first, first + count). */
struct InstRange
{
    uint32_t first = 0;
    uint32_t count = 0;

    bool operator==(const InstRange &) const = default;
};

/** A function symbol with the metadata the static analyses need. */
struct FunctionSymbol
{
    std::string name;
    InstRange body;                    //!< whole function
    InstRange prologue;                //!< register-save template
    std::vector<InstRange> epilogues;  //!< restore templates (>= 1)
};

/** @{ The function-symbol table's wire form, shared by .ccp programs
 *  and .cco modules: a count, then each function's name, body,
 *  prologue and epilogue ranges. getFunctions throws LoadFailure. */
void putFunctions(ByteSink &sink,
                  const std::vector<FunctionSymbol> &functions);
std::vector<FunctionSymbol> getFunctions(ByteSource &source);
/** @} */

/** Why @p functions do not fit a .text of @p textCount instructions
 *  (a body outside .text, a prologue or epilogue outside its body),
 *  or std::nullopt when every range nests. */
std::optional<std::string>
functionRangeError(const std::vector<FunctionSymbol> &functions,
                   uint64_t textCount);

/** A fully linked ppclite executable. */
struct Program
{
    /** Base byte address of .text in both address spaces. */
    static constexpr uint32_t textBase = 0x00010000;

    /** Alignment of the .data base above the end of .text. */
    static constexpr uint32_t dataAlign = 0x1000;

    std::vector<isa::Word> text;
    std::vector<uint8_t> data;
    uint32_t dataBase = 0;
    std::vector<CodeReloc> codeRelocs;
    std::vector<FunctionSymbol> functions;
    uint32_t entryIndex = 0; //!< instruction index where execution starts

    /** Size of the uncompressed .text in bytes; the denominator of every
     *  compression ratio in the paper. */
    uint32_t textBytes() const
    {
        return static_cast<uint32_t>(text.size()) * isa::instBytes;
    }

    /** Byte address of instruction @p index. */
    uint32_t addrOfIndex(uint32_t index) const
    {
        return textBase + index * isa::instBytes;
    }

    /** Instruction index of byte address @p addr (must be in .text). */
    uint32_t indexOfAddr(uint32_t addr) const;

    /** Compute dataBase from the text size (idempotent; also done by
     *  finalize). The linker needs it before relocation. */
    void computeDataBase();

    /** Compute dataBase from the text size and run sanity checks:
     *  every relative branch lands on a valid instruction, every code
     *  relocation points into .text, symbol ranges nest properly.
     *  Panics on violations -- for internally generated programs only;
     *  untrusted input goes through validate(). */
    void finalize();

    /**
     * Structural validation of untrusted program content: the same
     * invariants finalize() enforces, plus an address-space fit check,
     * reported as a typed LoadError instead of a panic. Returns
     * std::nullopt when the program is well formed. Does not require
     * (or set) dataBase.
     */
    std::optional<LoadError> validate() const;

    /** Target instruction index of the relative branch at @p index. */
    uint32_t branchTargetIndex(uint32_t index) const;
};

} // namespace codecomp

#endif // CODECOMP_PROGRAM_PROGRAM_HH
