/**
 * @file
 * Instruction-level model of the Tensor Core ISA and the paper's
 * extensions (Sec. V).
 *
 * Machine-level operations modeled:
 *  - HMMA.884      — inner-product 8x8x4 MMA (two Tensor Cores),
 *                    the V100 baseline primitive (Fig. 13a);
 *  - OHMMA.8161    — outer-product 8x16x1 MMA on the OTC pair
 *                    (Fig. 13b / Fig. 14);
 *  - BOHMMA.32321  — 32x32x1 binary (bitmap) outer product, 16x the
 *                    FP16 tile size at the same rate (Fig. 14);
 *  - POPC          — scalar population count used to set OHMMA
 *                    predication bits (Fig. 15).
 *
 * A WarpProgram is the predicated instruction stream a SpWMMA API
 * call compiles to (Fig. 17). Cycle accounting lives here too so the
 * ISA and timing agree by construction: a dense 16x16x16 WMMA and a
 * dense 16x16x16 OWMMA both take 32 issue cycles (Sec. V-A2).
 */
#ifndef DSTC_ISA_ISA_H
#define DSTC_ISA_ISA_H

#include <cstdint>
#include <string>
#include <vector>

namespace dstc {

/** Modeled opcodes. */
enum class Opcode : uint8_t
{
    HMMA_884,     ///< inner-product 8x8x4 MMA
    OHMMA_8161,   ///< outer-product 8x16x1 MMA
    BOHMMA_32321, ///< binary outer product on 32x32x1 bitmaps
    POPC,         ///< population count (scalar pipeline)
};

/** Issue cost of an opcode on the tensor-core pipeline, in cycles. */
int issueCycles(Opcode op);

/** Printable mnemonic. */
const char *mnemonic(Opcode op);

/**
 * One machine instruction. Predication follows Fig. 17: an OHMMA
 * carries a predicate bit that was set from the POPC results; a
 * false predicate squashes the instruction at zero tensor-core cost.
 */
struct Instruction
{
    Opcode op = Opcode::OHMMA_8161;
    bool predicate = true; ///< executes iff true
    int16_t set = 0;       ///< SpWMMA set index (k-step), Fig. 15
    int8_t a_chunk = 0;    ///< A-side 8-row chunk index (0..3)
    int8_t b_chunk = 0;    ///< B-side 16-col chunk index (0..1)

    /** Disassemble in the style of Fig. 17. */
    std::string disassemble() const;
};

/** Per-opcode issue statistics of a warp program. */
struct InstructionMix
{
    int64_t hmma = 0;
    int64_t ohmma_issued = 0;
    int64_t ohmma_skipped = 0; ///< squashed by predication
    int64_t bohmma = 0;
    int64_t popc = 0;

    /** Tensor-core issue cycles (POPC runs on the scalar pipe). */
    int64_t tensorCycles() const;

    InstructionMix &operator+=(const InstructionMix &other);

    bool operator==(const InstructionMix &) const = default;
};

/** A warp's predicated instruction stream. */
class WarpProgram
{
  public:
    void
    append(const Instruction &instr)
    {
        instrs_.push_back(instr);
    }

    size_t size() const { return instrs_.size(); }
    const Instruction &operator[](size_t i) const { return instrs_[i]; }

    const std::vector<Instruction> &instructions() const
    {
        return instrs_;
    }

    /** Aggregate issue statistics. */
    InstructionMix mix() const;

    /** Full disassembly, one instruction per line. */
    std::string disassemble() const;

  private:
    std::vector<Instruction> instrs_;
};

} // namespace dstc

#endif // DSTC_ISA_ISA_H
