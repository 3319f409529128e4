/**
 * @file
 * On-disk formats for linked programs (.ccp) and compressed images
 * (.cci) -- the interchange between the minicc, ccompress, and ccrun
 * command-line tools.
 *
 * The compressed-image format stores exactly what a compressed-code
 * part would hold in ROM: the scheme, the nibble stream, the
 * rank-ordered dictionary, the patched .data image, and the entry
 * point. Analysis-only fields of CompressedImage (the raw selection,
 * address map, composition) are not persisted; a loaded image
 * executes, but the dictionary-usage analyses require the in-memory
 * result of compressProgram().
 *
 * Both are sealed in the checksummed envelope (support/serialize.hh),
 * so byte-level corruption is rejected at load. Loaded payloads are
 * then structurally validated (validateImage / Program::validate), so
 * even a payload with an honest checksum -- or an in-memory image --
 * cannot reach the processors with out-of-range dictionary indices,
 * truncated streams, or branch targets off item boundaries. The
 * tryLoad* entry points report all of this as typed LoadErrors;
 * loadProgram/loadImage are thin throwing wrappers.
 */

#ifndef CODECOMP_COMPRESS_OBJFILE_HH
#define CODECOMP_COMPRESS_OBJFILE_HH

#include "compress/image.hh"
#include "program/program.hh"
#include "support/serialize.hh"

namespace codecomp {

/** @{ Program (.ccp) serialization. */
std::vector<uint8_t> saveProgram(const Program &program);
Result<Program> tryLoadProgram(const std::vector<uint8_t> &bytes);
Program loadProgram(const std::vector<uint8_t> &bytes);
/** @} */

/** @{ Compressed image (.cci) serialization. */
std::vector<uint8_t> saveImage(const compress::CompressedImage &image);
Result<compress::CompressedImage>
tryLoadImage(const std::vector<uint8_t> &bytes);
compress::CompressedImage loadImage(const std::vector<uint8_t> &bytes);
/** @} */

/** Largest dictionary entry the file format accepts, in words. */
constexpr uint32_t maxImageEntryWords = 64;

/**
 * Full structural validation of a compressed image, as a hardware
 * loader would perform before handing the ROM to the fetch stage:
 *
 *  - the byte blob matches the declared nibble count, with a zero pad
 *    nibble when the count is odd;
 *  - the dictionary fits the scheme's codeword ceiling, every entry
 *    has 1..maxImageEntryWords words, every word decodes to a legal
 *    ppclite instruction, and no entry contains a relative branch;
 *  - the stream parses end to end (no item runs off the end), every
 *    codeword's rank indexes the dictionary, and every uncompressed
 *    word decodes;
 *  - every relative branch in the stream (and the entry point) lands
 *    on an item boundary inside the text;
 *  - the .data image fits the address space.
 *
 * Returns std::nullopt when valid. tryLoadImage runs this on every
 * loaded image; callers constructing images in memory (or mutating
 * them) can invoke it directly.
 */
std::optional<LoadError>
validateImage(const compress::CompressedImage &image);

} // namespace codecomp

#endif // CODECOMP_COMPRESS_OBJFILE_HH
