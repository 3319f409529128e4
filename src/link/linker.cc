#include "link/linker.hh"

#include <unordered_map>

#include "isa/builder.hh"
#include "support/logging.hh"

namespace codecomp::link {

namespace {

/** Number of instructions in the synthesized _start stub. */
constexpr uint32_t startInsns = 3;

int32_t
haHalf(uint32_t addr)
{
    return static_cast<int32_t>(
        static_cast<int16_t>(((addr + 0x8000u) >> 16) & 0xffff));
}

int32_t
loHalf(uint32_t addr)
{
    return static_cast<int32_t>(static_cast<int16_t>(addr & 0xffff));
}

/** Rewrite the imm or disp field of the instruction at @p index. */
void
patch(Program &program, uint32_t index, int32_t isa::Inst::*field,
      int32_t value)
{
    isa::Inst inst = isa::decode(program.text[index]);
    inst.*field = value;
    program.text[index] = isa::encode(inst);
}

} // namespace

Program
linkModules(const std::vector<ObjectModule> &modules)
{
    if (modules.empty())
        CC_FATAL("nothing to link");

    Program program;

    // ---- _start stub ----
    program.text.push_back(isa::encode(isa::bl(0))); // patched below
    program.text.push_back(isa::encode(
        isa::li(0, static_cast<int32_t>(isa::Syscall::Exit))));
    program.text.push_back(isa::encode(isa::sc()));
    FunctionSymbol start_sym;
    start_sym.name = "_start";
    start_sym.body = {0, startInsns};
    program.functions.push_back(start_sym);
    program.entryIndex = 0;

    // ---- layout ----
    std::vector<uint32_t> text_base(modules.size());
    std::vector<uint32_t> data_base(modules.size());
    for (size_t m = 0; m < modules.size(); ++m) {
        text_base[m] = static_cast<uint32_t>(program.text.size());
        program.text.insert(program.text.end(), modules[m].text.begin(),
                            modules[m].text.end());
        // Word-align each module's data.
        while (program.data.size() % 4 != 0)
            program.data.push_back(0);
        data_base[m] = static_cast<uint32_t>(program.data.size());
        program.data.insert(program.data.end(), modules[m].data.begin(),
                            modules[m].data.end());
    }

    // ---- global function symbol table ----
    std::unordered_map<std::string, uint32_t> entry_of;
    for (size_t m = 0; m < modules.size(); ++m) {
        for (const FunctionSymbol &fn : modules[m].functions) {
            uint32_t entry = text_base[m] + fn.body.first;
            auto [it, inserted] = entry_of.emplace(fn.name, entry);
            if (!inserted)
                CC_FATAL("duplicate symbol '", fn.name, "' (modules ",
                         modules[m].name, " and earlier)");
            FunctionSymbol rebased = fn;
            rebased.body.first += text_base[m];
            if (rebased.prologue.count > 0)
                rebased.prologue.first += text_base[m];
            for (InstRange &ep : rebased.epilogues)
                ep.first += text_base[m];
            program.functions.push_back(std::move(rebased));
        }
    }

    // ---- relocation ----
    auto entry_index = [&entry_of](const std::string &symbol,
                                   const std::string &module) {
        auto it = entry_of.find(symbol);
        if (it == entry_of.end())
            CC_FATAL("unresolved symbol '", symbol, "' referenced from ",
                     module);
        return it->second;
    };

    // _start calls main.
    patch(program, 0, &isa::Inst::disp,
          static_cast<int32_t>(entry_index("main", "_start")));

    program.computeDataBase();
    // Code or data beyond the address space is the source's fault, not
    // a linker bug: a user error, caught before any displacement is
    // patched.
    if (uint64_t{program.dataBase} + program.data.size() >
        isa::addressSpaceBytes)
        CC_FATAL("linked program of ", program.text.size(),
                 " instructions and ", program.data.size(),
                 " bytes of .data does not fit the ",
                 isa::addressSpaceBytes, "-byte address space");

    for (size_t m = 0; m < modules.size(); ++m) {
        for (const CallReloc &reloc : modules[m].calls) {
            uint32_t site = text_base[m] + reloc.textIndex;
            uint32_t target = entry_index(reloc.callee, modules[m].name);
            patch(program, site, &isa::Inst::disp,
                  static_cast<int32_t>(target) -
                      static_cast<int32_t>(site));
        }
        for (const DataReloc &reloc : modules[m].dataRefs) {
            uint32_t site = text_base[m] + reloc.textIndex;
            uint32_t addr =
                program.dataBase + data_base[m] + reloc.dataOffset;
            patch(program, site, &isa::Inst::imm,
                  reloc.half == DataReloc::Half::Ha ? haHalf(addr)
                                                    : loHalf(addr));
        }
        for (const TableReloc &reloc : modules[m].tables) {
            program.codeRelocs.push_back(
                {data_base[m] + reloc.dataOffset,
                 text_base[m] + reloc.textIndex});
        }
    }

    program.finalize();
    return program;
}

} // namespace codecomp::link
