/**
 * @file
 * Relocatable object modules: the output of separate compilation.
 *
 * The paper's binaries were compiled per translation unit and linked
 * statically (libraries included). This module reproduces that
 * pipeline: `minicc -c` turns one MiniC translation unit into an
 * ObjectModule whose function calls and data references are recorded
 * as relocations; the linker (link.hh) concatenates modules, resolves
 * symbols, lays out .data, and produces the executable Program the
 * compressor consumes.
 *
 * Scope: functions link across modules by name; globals are
 * module-private (early-linker semantics -- cross-module state flows
 * through calls), which keeps MiniC free of declaration syntax.
 */

#ifndef CODECOMP_LINK_OBJECT_HH
#define CODECOMP_LINK_OBJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hh"

namespace codecomp::link {

/** A `bl` whose displacement awaits symbol resolution. */
struct CallReloc
{
    uint32_t textIndex;  //!< module-local instruction index of the bl
    std::string callee;  //!< function symbol name
};

/** A 16-bit immediate holding half of a module-local .data address. */
struct DataReloc
{
    enum class Half : uint8_t {
        Ha, //!< high-adjusted half (lis)
        Lo, //!< low half (addi/lwz/stw displacement)
    };
    uint32_t textIndex;  //!< instruction whose imm field gets patched
    uint32_t dataOffset; //!< module-local .data byte offset
    Half half;
};

/** A .data word that must receive the address of a text label. */
struct TableReloc
{
    uint32_t dataOffset; //!< module-local .data byte offset
    uint32_t textIndex;  //!< module-local instruction index
};

/** One relocatable translation unit. */
struct ObjectModule
{
    std::string name; //!< diagnostic label (source/benchmark name)

    std::vector<isa::Word> text; //!< module-local instruction stream
    std::vector<uint8_t> data;   //!< module-local initialized data

    /** Defined functions, with module-local ranges. */
    std::vector<FunctionSymbol> functions;

    std::vector<CallReloc> calls;
    std::vector<DataReloc> dataRefs;
    std::vector<TableReloc> tables;
};

/** @{ On-disk .cco format, sealed in the checksummed envelope.
 *  tryLoadModule also rejects (BadValue) any module the linker could
 *  not turn into a valid program; loadModule is its throwing wrapper. */
std::vector<uint8_t> saveModule(const ObjectModule &module);
Result<ObjectModule> tryLoadModule(const std::vector<uint8_t> &bytes);
ObjectModule loadModule(const std::vector<uint8_t> &bytes);
/** @} */

} // namespace codecomp::link

#endif // CODECOMP_LINK_OBJECT_HH
