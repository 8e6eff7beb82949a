/**
 * @file
 * Binary (de)serialization of a built index. Used by the offloading
 * API's init() call, which "loads the inverted index file from disk
 * to SCM memory pool" (paper Sec. IV-D).
 *
 * One parser reads the v2 format for two load paths, which differ
 * only in their reader:
 *  - loadIndex() reads a stream: payloads are owned heap copies, and
 *    the whole-file CRC is verified;
 *  - MappedIndex maps the file: payloads stay views into the
 *    mapping, and the whole-file CRC must be present but is not
 *    scanned -- payload integrity is covered lazily by the per-block
 *    CRCs in BlockMeta, checked on first decode by the FaultPolicy
 *    (see Device::loadMappedTextIndexFile). Startup cost is
 *    O(metadata), not O(corpus).
 *
 * IndexFileWriter streams one list at a time into the same format,
 * so a bounded-memory external-merge build (external_build.h) never
 * materializes the whole index; saveIndex() is a loop over it.
 */

#ifndef BOSS_INDEX_SERIALIZE_H
#define BOSS_INDEX_SERIALIZE_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "index/inverted_index.h"
#include "index/lexicon.h"

namespace boss::index
{

/**
 * Write @p index to @p os in the BOSS index file format (v2): a
 * checksummed header, raw vectors with explicit lengths, and a
 * trailing CRC32 over the whole body. Every compressed payload also
 * carries its own CRC32 inside its BlockMeta record.
 */
void saveIndex(const InvertedIndex &index, std::ostream &os);

/**
 * Read an index previously written by saveIndex(). Fatal (exit 1) on
 * any malformed input: bad magic/version, truncation, out-of-range
 * lengths or offsets, or checksum mismatch. Leaves the stream
 * positioned directly after the index (streams may carry further
 * sections, e.g. a text index's lexicon).
 */
InvertedIndex loadIndex(std::istream &is);

/**
 * Non-fatal variant of loadIndex(): returns std::nullopt on
 * malformed input (filling @p error when given). Used by corruption
 * tests that probe thousands of damaged inputs in one process.
 */
std::optional<InvertedIndex> tryLoadIndex(std::istream &is,
                                          std::string *error = nullptr);

/** File-path convenience wrappers. */
void saveIndexFile(const InvertedIndex &index, const std::string &path);
InvertedIndex loadIndexFile(const std::string &path);

/**
 * Streaming writer of the v2 index format: header and doc table up
 * front, then one writeList() per term in TermId order (exactly
 * numTerms calls), then finish() for the trailing file CRC. Produces
 * byte-identical output to saveIndex() given the same lists, so the
 * external-merge build path is differentially testable against the
 * in-memory builder. Further sections (a text index's lexicon) may
 * be appended to the stream after finish().
 */
class IndexFileWriter
{
  public:
    IndexFileWriter(std::ostream &os, const Bm25Params &params,
                    double avgDocLen, const std::vector<DocInfo> &docs,
                    std::uint32_t numTerms);
    ~IndexFileWriter();

    IndexFileWriter(const IndexFileWriter &) = delete;
    IndexFileWriter &operator=(const IndexFileWriter &) = delete;

    /** Append the next term's list (call in TermId order). */
    void writeList(const CompressedPostingList &list);

    /** Write the trailing CRC; must follow exactly numTerms lists. */
    void finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::uint32_t declaredTerms_ = 0;
    std::uint32_t writtenTerms_ = 0;
    bool finished_ = false;
};

/**
 * An index mapped from disk: doc table and block metadata are parsed
 * (and structurally validated) eagerly, posting payloads stay as
 * views into the mapping. The whole-file CRC is *not* scanned --
 * payload integrity is the per-block CRCs' job, verified on first
 * decode when the owning Device arms its verify-once FaultPolicy.
 *
 * The mapping must outlive every consumer of index(); share() builds
 * an aliasing shared_ptr so Device/engine code holds the mapping
 * alive through the index pointer it already keeps.
 */
class MappedIndex
{
  public:
    /** Map @p path and parse its metadata; fatal on malformed input. */
    static std::shared_ptr<MappedIndex> open(const std::string &path);

    /** Non-fatal variant: nullptr on malformed input. */
    static std::shared_ptr<MappedIndex>
    tryOpen(const std::string &path, std::string *error = nullptr);

    ~MappedIndex();
    MappedIndex(const MappedIndex &) = delete;
    MappedIndex &operator=(const MappedIndex &) = delete;

    const InvertedIndex &index() const { return *index_; }

    /** Aliasing pointer: keeps this mapping alive with the index. */
    static std::shared_ptr<const InvertedIndex>
    share(const std::shared_ptr<MappedIndex> &self)
    {
        return {self, &self->index()};
    }

    /** Does a lexicon section follow the index (text-index file)? */
    bool hasLexicon() const;
    /** Parse the trailing lexicon section (metadata-sized copy). */
    Lexicon loadLexicon() const;

    /** Mapping base/extent (tests compute payload file offsets). */
    const std::uint8_t *base() const { return base_; }
    std::size_t fileSize() const { return size_; }
    /** File offset of @p p, which must point into the mapping. */
    std::size_t
    fileOffset(const std::uint8_t *p) const
    {
        return static_cast<std::size_t>(p - base_);
    }

  private:
    MappedIndex() = default;

    const std::uint8_t *base_ = nullptr;
    std::size_t size_ = 0;
    /** Offset of the first byte past the index's trailing CRC. */
    std::size_t indexEnd_ = 0;
    std::unique_ptr<InvertedIndex> index_;
};

} // namespace boss::index

#endif // BOSS_INDEX_SERIALIZE_H
