#include "isa/inst.hh"

#include "support/logging.hh"

namespace codecomp::isa {

bool
immIsSigned(Op op)
{
    switch (op) {
      case Op::Addi:
      case Op::Addis:
      case Op::Mulli:
      case Op::Cmpi:
      case Op::Lwz:
      case Op::Lbz:
      case Op::Lhz:
      case Op::Stw:
      case Op::Stb:
      case Op::Sth:
        return true;
      default:
        return false;
    }
}

namespace {

/** Field extraction helpers (bit 0 = LSB here, unlike PowerPC docs). */
constexpr uint8_t fieldRt(Word w) { return (w >> 21) & 0x1f; }
constexpr uint8_t fieldRa(Word w) { return (w >> 16) & 0x1f; }
constexpr uint8_t fieldRb(Word w) { return (w >> 11) & 0x1f; }
constexpr uint8_t fieldCrf(Word w) { return (w >> 23) & 0x7; }
constexpr uint16_t fieldUimm(Word w) { return w & 0xffff; }
constexpr int32_t fieldSimm(Word w) { return signExtend(w & 0xffff, 16); }
constexpr uint16_t fieldXo(Word w) { return (w >> 1) & 0x3ff; }
constexpr uint16_t fieldSpr(Word w) { return (w >> 11) & 0x3ff; }
constexpr uint8_t fieldSh(Word w) { return (w >> 11) & 0x1f; }
constexpr uint8_t fieldMb(Word w) { return (w >> 6) & 0x1f; }
constexpr uint8_t fieldMe(Word w) { return (w >> 1) & 0x1f; }
constexpr bool fieldAa(Word w) { return (w >> 1) & 1; }
constexpr bool fieldLk(Word w) { return w & 1; }

Inst
decodeDForm(Op op, Word w)
{
    Inst inst;
    inst.op = op;
    inst.rt = fieldRt(w);
    inst.ra = fieldRa(w);
    inst.imm = immIsSigned(op) ? fieldSimm(w)
                               : static_cast<int32_t>(fieldUimm(w));
    return inst;
}

Inst
decodeCmpImm(Op op, Word w)
{
    Inst inst;
    inst.op = op;
    inst.crf = fieldCrf(w);
    inst.ra = fieldRa(w);
    inst.imm = (op == Op::Cmpi) ? fieldSimm(w)
                                : static_cast<int32_t>(fieldUimm(w));
    return inst;
}

Inst
decodeOp19(Word w)
{
    Inst inst;
    switch (static_cast<Xo19>(fieldXo(w))) {
      case Xo19::Bclr:
        inst.op = Op::Bclr;
        break;
      case Xo19::Bcctr:
        inst.op = Op::Bcctr;
        break;
      default:
        inst.op = Op::Illegal;
        inst.raw = w;
        return inst;
    }
    inst.bo = fieldRt(w);
    inst.bi = fieldRa(w);
    inst.lk = fieldLk(w);
    return inst;
}

Inst
decodeOp31(Word w)
{
    Inst inst;
    uint16_t xo = fieldXo(w);
    switch (static_cast<Xo31>(xo)) {
      case Xo31::Cmp:
        inst.op = Op::Cmp;
        break;
      case Xo31::Cmpl:
        inst.op = Op::Cmpl;
        break;
      case Xo31::Lwzx:
        inst.op = Op::Lwzx;
        break;
      case Xo31::Slw:
        inst.op = Op::Slw;
        break;
      case Xo31::And:
        inst.op = Op::And;
        break;
      case Xo31::Subf:
        inst.op = Op::Subf;
        break;
      case Xo31::Neg:
        inst.op = Op::Neg;
        break;
      case Xo31::Mullw:
        inst.op = Op::Mullw;
        break;
      case Xo31::Add:
        inst.op = Op::Add;
        break;
      case Xo31::Xor:
        inst.op = Op::Xor;
        break;
      case Xo31::Mfspr:
        inst.op = Op::Mfspr;
        break;
      case Xo31::Or:
        inst.op = Op::Or;
        break;
      case Xo31::Mtspr:
        inst.op = Op::Mtspr;
        break;
      case Xo31::Divw:
        inst.op = Op::Divw;
        break;
      case Xo31::Srw:
        inst.op = Op::Srw;
        break;
      case Xo31::Sraw:
        inst.op = Op::Sraw;
        break;
      case Xo31::Srawi:
        inst.op = Op::Srawi;
        break;
      default:
        inst.op = Op::Illegal;
        inst.raw = w;
        return inst;
    }
    if (inst.op == Op::Srawi) {
        inst.rt = fieldRt(w);
        inst.ra = fieldRa(w);
        inst.sh = fieldRb(w);
        return inst;
    }
    if (inst.op == Op::Cmp || inst.op == Op::Cmpl) {
        inst.crf = fieldCrf(w);
        inst.ra = fieldRa(w);
        inst.rb = fieldRb(w);
    } else if (inst.op == Op::Mtspr || inst.op == Op::Mfspr) {
        inst.rt = fieldRt(w);
        inst.spr = fieldSpr(w);
    } else {
        inst.rt = fieldRt(w);
        inst.ra = fieldRa(w);
        // neg has no rb operand; its field is reserved and ignored.
        inst.rb = inst.op == Op::Neg ? 0 : fieldRb(w);
    }
    return inst;
}

} // namespace

Inst
decode(Word w)
{
    uint8_t primop = primOpOf(w);
    Inst inst;
    switch (primop) {
      case static_cast<uint8_t>(PrimOp::Mulli):
        return decodeDForm(Op::Mulli, w);
      case static_cast<uint8_t>(PrimOp::Cmpli):
        return decodeCmpImm(Op::Cmpli, w);
      case static_cast<uint8_t>(PrimOp::Cmpi):
        return decodeCmpImm(Op::Cmpi, w);
      case static_cast<uint8_t>(PrimOp::Addi):
        return decodeDForm(Op::Addi, w);
      case static_cast<uint8_t>(PrimOp::Addis):
        return decodeDForm(Op::Addis, w);
      case static_cast<uint8_t>(PrimOp::Bc):
        inst.op = Op::Bc;
        inst.bo = fieldRt(w);
        inst.bi = fieldRa(w);
        inst.disp = signExtend((w >> 2) & 0x3fff, 14);
        inst.aa = fieldAa(w);
        inst.lk = fieldLk(w);
        return inst;
      case static_cast<uint8_t>(PrimOp::Sc):
        inst.op = Op::Sc;
        return inst;
      case static_cast<uint8_t>(PrimOp::B):
        inst.op = Op::B;
        inst.disp = signExtend((w >> 2) & 0xffffff, 24);
        inst.aa = fieldAa(w);
        inst.lk = fieldLk(w);
        return inst;
      case static_cast<uint8_t>(PrimOp::Op19):
        return decodeOp19(w);
      case static_cast<uint8_t>(PrimOp::Rlwinm):
        inst.op = Op::Rlwinm;
        inst.rt = fieldRt(w);
        inst.ra = fieldRa(w);
        inst.sh = fieldSh(w);
        inst.mb = fieldMb(w);
        inst.me = fieldMe(w);
        return inst;
      case static_cast<uint8_t>(PrimOp::Ori):
        return decodeDForm(Op::Ori, w);
      case static_cast<uint8_t>(PrimOp::Oris):
        return decodeDForm(Op::Oris, w);
      case static_cast<uint8_t>(PrimOp::Xori):
        return decodeDForm(Op::Xori, w);
      case static_cast<uint8_t>(PrimOp::Andi):
        return decodeDForm(Op::Andi, w);
      case static_cast<uint8_t>(PrimOp::Op31):
        return decodeOp31(w);
      case static_cast<uint8_t>(PrimOp::Lwz):
        return decodeDForm(Op::Lwz, w);
      case static_cast<uint8_t>(PrimOp::Lbz):
        return decodeDForm(Op::Lbz, w);
      case static_cast<uint8_t>(PrimOp::Stw):
        return decodeDForm(Op::Stw, w);
      case static_cast<uint8_t>(PrimOp::Stb):
        return decodeDForm(Op::Stb, w);
      case static_cast<uint8_t>(PrimOp::Lhz):
        return decodeDForm(Op::Lhz, w);
      case static_cast<uint8_t>(PrimOp::Sth):
        return decodeDForm(Op::Sth, w);
      default:
        inst.op = Op::Illegal;
        inst.raw = w;
        return inst;
    }
}

namespace {

Word
encodeDForm(PrimOp primop, const Inst &inst)
{
    CC_ASSERT(inst.rt < numGprs && inst.ra < numGprs, "register range");
    uint32_t imm_field;
    if (immIsSigned(inst.op)) {
        CC_ASSERT(fitsSigned(inst.imm, 16), "signed immediate range");
        imm_field = static_cast<uint32_t>(inst.imm) & 0xffff;
    } else {
        CC_ASSERT(inst.imm >= 0 && inst.imm <= 0xffff,
                  "unsigned immediate range");
        imm_field = static_cast<uint32_t>(inst.imm);
    }
    return (static_cast<uint32_t>(primop) << 26) |
           (static_cast<uint32_t>(inst.rt) << 21) |
           (static_cast<uint32_t>(inst.ra) << 16) | imm_field;
}

Word
encodeCmpImm(PrimOp primop, const Inst &inst)
{
    CC_ASSERT(inst.crf < numCrFields && inst.ra < numGprs, "field range");
    uint32_t imm_field;
    if (inst.op == Op::Cmpi) {
        CC_ASSERT(fitsSigned(inst.imm, 16), "signed immediate range");
        imm_field = static_cast<uint32_t>(inst.imm) & 0xffff;
    } else {
        CC_ASSERT(inst.imm >= 0 && inst.imm <= 0xffff,
                  "unsigned immediate range");
        imm_field = static_cast<uint32_t>(inst.imm);
    }
    return (static_cast<uint32_t>(primop) << 26) |
           (static_cast<uint32_t>(inst.crf) << 23) |
           (static_cast<uint32_t>(inst.ra) << 16) | imm_field;
}

Word
encodeXForm(Xo31 xo, uint8_t f1, uint8_t f2, uint8_t f3)
{
    return (static_cast<uint32_t>(PrimOp::Op31) << 26) |
           (static_cast<uint32_t>(f1) << 21) |
           (static_cast<uint32_t>(f2) << 16) |
           (static_cast<uint32_t>(f3) << 11) |
           (static_cast<uint32_t>(xo) << 1);
}

} // namespace

Word
encode(const Inst &inst)
{
    switch (inst.op) {
      case Op::Addi:
        return encodeDForm(PrimOp::Addi, inst);
      case Op::Addis:
        return encodeDForm(PrimOp::Addis, inst);
      case Op::Mulli:
        return encodeDForm(PrimOp::Mulli, inst);
      case Op::Ori:
        return encodeDForm(PrimOp::Ori, inst);
      case Op::Oris:
        return encodeDForm(PrimOp::Oris, inst);
      case Op::Xori:
        return encodeDForm(PrimOp::Xori, inst);
      case Op::Andi:
        return encodeDForm(PrimOp::Andi, inst);
      case Op::Lwz:
        return encodeDForm(PrimOp::Lwz, inst);
      case Op::Lbz:
        return encodeDForm(PrimOp::Lbz, inst);
      case Op::Lhz:
        return encodeDForm(PrimOp::Lhz, inst);
      case Op::Stw:
        return encodeDForm(PrimOp::Stw, inst);
      case Op::Stb:
        return encodeDForm(PrimOp::Stb, inst);
      case Op::Sth:
        return encodeDForm(PrimOp::Sth, inst);
      case Op::Cmpi:
        return encodeCmpImm(PrimOp::Cmpi, inst);
      case Op::Cmpli:
        return encodeCmpImm(PrimOp::Cmpli, inst);
      case Op::B:
        CC_ASSERT(fitsSigned(inst.disp, 24), "B displacement range");
        return (static_cast<uint32_t>(PrimOp::B) << 26) |
               ((static_cast<uint32_t>(inst.disp) & 0xffffff) << 2) |
               (inst.aa ? 2u : 0u) | (inst.lk ? 1u : 0u);
      case Op::Bc:
        CC_ASSERT(fitsSigned(inst.disp, 14), "Bc displacement range");
        CC_ASSERT(inst.bo < 32 && inst.bi < 32, "bo/bi range");
        return (static_cast<uint32_t>(PrimOp::Bc) << 26) |
               (static_cast<uint32_t>(inst.bo) << 21) |
               (static_cast<uint32_t>(inst.bi) << 16) |
               ((static_cast<uint32_t>(inst.disp) & 0x3fff) << 2) |
               (inst.aa ? 2u : 0u) | (inst.lk ? 1u : 0u);
      case Op::Bclr:
      case Op::Bcctr: {
        Xo19 xo = (inst.op == Op::Bclr) ? Xo19::Bclr : Xo19::Bcctr;
        CC_ASSERT(inst.bo < 32 && inst.bi < 32, "bo/bi range");
        return (static_cast<uint32_t>(PrimOp::Op19) << 26) |
               (static_cast<uint32_t>(inst.bo) << 21) |
               (static_cast<uint32_t>(inst.bi) << 16) |
               (static_cast<uint32_t>(xo) << 1) | (inst.lk ? 1u : 0u);
      }
      case Op::Rlwinm:
        CC_ASSERT(inst.sh < 32 && inst.mb < 32 && inst.me < 32,
                  "rlwinm field range");
        return (static_cast<uint32_t>(PrimOp::Rlwinm) << 26) |
               (static_cast<uint32_t>(inst.rt) << 21) |
               (static_cast<uint32_t>(inst.ra) << 16) |
               (static_cast<uint32_t>(inst.sh) << 11) |
               (static_cast<uint32_t>(inst.mb) << 6) |
               (static_cast<uint32_t>(inst.me) << 1);
      case Op::Add:
        return encodeXForm(Xo31::Add, inst.rt, inst.ra, inst.rb);
      case Op::Subf:
        return encodeXForm(Xo31::Subf, inst.rt, inst.ra, inst.rb);
      case Op::Neg:
        return encodeXForm(Xo31::Neg, inst.rt, inst.ra, 0);
      case Op::Mullw:
        return encodeXForm(Xo31::Mullw, inst.rt, inst.ra, inst.rb);
      case Op::Divw:
        return encodeXForm(Xo31::Divw, inst.rt, inst.ra, inst.rb);
      case Op::And:
        return encodeXForm(Xo31::And, inst.rt, inst.ra, inst.rb);
      case Op::Or:
        return encodeXForm(Xo31::Or, inst.rt, inst.ra, inst.rb);
      case Op::Xor:
        return encodeXForm(Xo31::Xor, inst.rt, inst.ra, inst.rb);
      case Op::Slw:
        return encodeXForm(Xo31::Slw, inst.rt, inst.ra, inst.rb);
      case Op::Srw:
        return encodeXForm(Xo31::Srw, inst.rt, inst.ra, inst.rb);
      case Op::Sraw:
        return encodeXForm(Xo31::Sraw, inst.rt, inst.ra, inst.rb);
      case Op::Srawi:
        CC_ASSERT(inst.sh < 32, "srawi shift range");
        return encodeXForm(Xo31::Srawi, inst.rt, inst.ra, inst.sh);
      case Op::Lwzx:
        return encodeXForm(Xo31::Lwzx, inst.rt, inst.ra, inst.rb);
      case Op::Cmp:
      case Op::Cmpl: {
        Xo31 xo = (inst.op == Op::Cmp) ? Xo31::Cmp : Xo31::Cmpl;
        CC_ASSERT(inst.crf < numCrFields, "crf range");
        return (static_cast<uint32_t>(PrimOp::Op31) << 26) |
               (static_cast<uint32_t>(inst.crf) << 23) |
               (static_cast<uint32_t>(inst.ra) << 16) |
               (static_cast<uint32_t>(inst.rb) << 11) |
               (static_cast<uint32_t>(xo) << 1);
      }
      case Op::Mtspr:
      case Op::Mfspr: {
        Xo31 xo = (inst.op == Op::Mtspr) ? Xo31::Mtspr : Xo31::Mfspr;
        CC_ASSERT(inst.spr < 1024, "spr range");
        return (static_cast<uint32_t>(PrimOp::Op31) << 26) |
               (static_cast<uint32_t>(inst.rt) << 21) |
               (static_cast<uint32_t>(inst.spr) << 11) |
               (static_cast<uint32_t>(xo) << 1);
      }
      case Op::Sc:
        return static_cast<uint32_t>(PrimOp::Sc) << 26 | 2u;
      case Op::Illegal:
        return inst.raw;
    }
    CC_PANIC("unhandled op in encode");
}

} // namespace codecomp::isa
