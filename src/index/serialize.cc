#include "index/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/logging.h"

namespace boss::index
{

namespace
{

constexpr std::uint32_t kMagic = 0xB0555EED;
constexpr std::uint32_t kVersion = 2; // v2: header CRC + payload CRCs
                                      // in BlockMeta + trailing file CRC

/**
 * Internal control flow for the load path: helpers throw LoadError,
 * the public entry points translate it to either fatal() (loadIndex,
 * the CLI-facing API) or std::nullopt (tryLoadIndex, used by the
 * corruption test sweep, which flips thousands of bytes in-process).
 */
struct LoadError
{
    std::string message;
};

[[noreturn]] void
loadFail(std::string message)
{
    throw LoadError{std::move(message)};
}

/**
 * Output stream wrapper accumulating a CRC32 over every byte
 * written, so the file checksum streams with the data (no second
 * pass, no buffering of the whole index).
 */
class CrcWriter
{
  public:
    explicit CrcWriter(std::ostream &os) : os_(os) {}

    void
    write(const void *src, std::size_t n)
    {
        os_.write(static_cast<const char *>(src),
                  static_cast<std::streamsize>(n));
        crc_.update(src, n);
    }

    /** Emit a value outside the checksum (the checksum itself). */
    template <typename T>
    void
    writeRaw(const T &v)
    {
        os_.write(reinterpret_cast<const char *>(&v), sizeof(T));
    }

    std::uint32_t crc() const { return crc_.value(); }

  private:
    std::ostream &os_;
    Crc32 crc_;
};

/**
 * The loadIndex() reader over an input stream. It accumulates the
 * same CRC32 the writer produced and enforces a byte budget, so a
 * corrupted length field can never drive an allocation or read
 * beyond the file. Payloads are owned copies; the index ends with
 * the trailing file CRC, which must match.
 */
class StreamReader
{
  public:
    explicit StreamReader(std::istream &is) : is_(is)
    {
        // Discover how many bytes remain; unseekable streams fall
        // back to a generous cap that still stops absurd lengths.
        constexpr std::uint64_t kFallbackBudget =
            std::uint64_t{1} << 40; // 1 TiB
        remaining_ = kFallbackBudget;
        auto cur = is_.tellg();
        if (cur != std::istream::pos_type(-1)) {
            is_.seekg(0, std::ios::end);
            auto end = is_.tellg();
            is_.seekg(cur);
            if (end != std::istream::pos_type(-1) && end >= cur)
                remaining_ = static_cast<std::uint64_t>(end - cur);
        }
    }

    void
    read(void *dst, std::size_t n)
    {
        readRaw(dst, n);
        crc_.update(dst, n);
    }

    /** Bytes left before the budget is exhausted. */
    std::uint64_t remaining() const { return remaining_; }

    PayloadBytes
    payload(std::size_t n)
    {
        AlignedVec<std::uint8_t> bytes(n);
        read(bytes.data(), n);
        return PayloadBytes::owned(std::move(bytes));
    }

    /**
     * Whole-body checksum, written outside its own coverage. Checked
     * last: everything before it already failed fast on the specific
     * field it caught, this is the net under everything else.
     */
    void
    finish()
    {
        const std::uint32_t expect = crc_.value();
        std::uint32_t stored = 0;
        readRaw(&stored, sizeof(stored));
        if (stored != expect)
            loadFail("index file corrupt: file checksum mismatch");
    }

  private:
    /** Read without folding the bytes into the checksum. */
    void
    readRaw(void *dst, std::size_t n)
    {
        if (n > remaining_)
            loadFail("index file truncated");
        is_.read(static_cast<char *>(dst),
                 static_cast<std::streamsize>(n));
        if (!is_)
            loadFail("index file truncated");
        remaining_ -= n;
    }

    std::istream &is_;
    Crc32 crc_;
    std::uint64_t remaining_ = 0;
};

/**
 * The MappedIndex reader: a bounds-checked cursor over the mapped
 * bytes. Payloads are views into the mapping. The trailing file CRC
 * must be present but is not scanned: reading the payload bytes it
 * covers would defeat the O(metadata) open, and the per-block CRCs
 * own payload integrity on this path.
 */
class SpanReader
{
  public:
    SpanReader(const std::uint8_t *base, std::size_t size)
        : p_(base), end_(base + size)
    {}

    void read(void *dst, std::size_t n) { std::memcpy(dst, take(n), n); }

    std::uint64_t
    remaining() const
    {
        return static_cast<std::uint64_t>(end_ - p_);
    }

    PayloadBytes
    payload(std::size_t n)
    {
        return PayloadBytes::view(take(n), n);
    }

    void finish() { take(sizeof(std::uint32_t)); }

    const std::uint8_t *pos() const { return p_; }

  private:
    /** Advance past @p n bytes, returning their mapped address. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > remaining())
            loadFail("index file truncated");
        const std::uint8_t *v = p_;
        p_ += n;
        return v;
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
};

template <typename T>
void
writePod(CrcWriter &w, const T &v)
{
    w.write(&v, sizeof(T));
}

template <typename T, typename Reader>
T
readPod(Reader &r)
{
    T v{};
    r.read(&v, sizeof(T));
    return v;
}

template <typename T, typename Alloc>
void
writeVec(CrcWriter &w, const std::vector<T, Alloc> &v)
{
    writePod<std::uint64_t>(w, v.size());
    w.write(v.data(), v.size() * sizeof(T));
}

void
writeVec(CrcWriter &w, const PayloadBytes &v)
{
    writePod<std::uint64_t>(w, v.size());
    w.write(v.data(), v.size());
}

/** One list's on-disk record (shared by saveIndex and the writer). */
void
writeListBody(CrcWriter &w, const CompressedPostingList &list)
{
    writePod(w, list.term);
    writePod(w, static_cast<std::uint8_t>(list.scheme));
    writePod(w, list.docCount);
    writePod(w, list.idf);
    writePod(w, list.maxTermScore);
    writeVec(w, list.blocks);
    writeVec(w, list.docPayload);
    writeVec(w, list.tfPayload);
}

/**
 * Read a vector's element count, checked against the bytes left
 * before anything is allocated: a flipped length field must fail
 * here, not inside the allocator or a wild read.
 */
template <typename T, typename Reader>
std::size_t
readCount(Reader &r, const char *what)
{
    auto n = readPod<std::uint64_t>(r);
    if (n > r.remaining() / sizeof(T))
        loadFail(detail::concat("index file truncated (", what,
                                " length ", n,
                                " exceeds remaining file size)"));
    return static_cast<std::size_t>(n);
}

template <typename T, typename Reader>
std::vector<T>
readVec(Reader &r, const char *what)
{
    std::vector<T> v(readCount<T>(r, what));
    r.read(v.data(), v.size() * sizeof(T));
    return v;
}

/**
 * Structural validation of one decoded list: every offset/count the
 * engine will later trust must be internally consistent, so a
 * corrupted-but-CRC-bypassing file can never drive out-of-bounds
 * payload slicing.
 */
void
validateList(const CompressedPostingList &list, std::uint32_t t)
{
    auto fail = [&](auto &&...args) {
        loadFail(detail::concat("index file corrupt: list ", t, ": ",
                                std::forward<decltype(args)>(args)...));
    };
    if (static_cast<std::uint8_t>(list.scheme) >=
        compress::kNumSchemes)
        fail("unknown compression scheme ",
             static_cast<unsigned>(list.scheme));
    std::uint64_t elems = 0;
    DocId prevLast = 0;
    for (std::uint32_t b = 0; b < list.numBlocks(); ++b) {
        const BlockMeta &m = list.blocks[b];
        if (m.numElems == 0 || m.numElems > kBlockSize)
            fail("block ", b, ": bad element count ",
                 static_cast<unsigned>(m.numElems));
        if (m.firstDoc > m.lastDoc)
            fail("block ", b, ": firstDoc > lastDoc");
        if (b > 0 && m.firstDoc <= prevLast)
            fail("block ", b, ": docID range overlaps prior block");
        prevLast = m.lastDoc;
        if (m.firstIndex != elems)
            fail("block ", b, ": bad firstIndex");
        elems += m.numElems;
        if (m.docBytes > list.docPayload.size() ||
            m.docOffset > list.docPayload.size() - m.docBytes)
            fail("block ", b, ": doc payload out of bounds");
        if (m.tfBytes > list.tfPayload.size() ||
            m.tfOffset > list.tfPayload.size() - m.tfBytes)
            fail("block ", b, ": tf payload out of bounds");
    }
    if (elems != list.docCount)
        fail("block element counts do not sum to docCount");
}

/**
 * The one v2 parser. The reader decides what a payload is (an owned
 * copy or a view into a mapping) and what ends the index (a checked
 * or merely present file CRC); every field is validated here.
 */
template <typename Reader>
InvertedIndex
parseIndex(Reader &r)
{
    if (readPod<std::uint32_t>(r) != kMagic)
        loadFail("not a BOSS index file (bad magic)");
    if (readPod<std::uint32_t>(r) != kVersion)
        loadFail("unsupported index file version");

    Bm25Params params;
    Crc32 headerCrc;
    params.k1 = readPod<double>(r);
    params.b = readPod<double>(r);
    auto avgDocLen = readPod<double>(r);
    headerCrc.update(&params.k1, sizeof(params.k1));
    headerCrc.update(&params.b, sizeof(params.b));
    headerCrc.update(&avgDocLen, sizeof(avgDocLen));
    if (readPod<std::uint32_t>(r) != headerCrc.value())
        loadFail("index file corrupt: header checksum mismatch");

    auto docs = readVec<DocInfo>(r, "doc table");

    auto numTerms = readPod<std::uint32_t>(r);
    // Cheapest possible list is term + scheme + docCount + idf +
    // maxTermScore + three empty vector headers: reject a flipped
    // term count from the byte budget before sizing the vector.
    constexpr std::uint64_t kMinListBytes =
        sizeof(TermId) + sizeof(std::uint8_t) +
        sizeof(std::uint32_t) + 2 * sizeof(float) +
        3 * sizeof(std::uint64_t);
    if (numTerms > r.remaining() / kMinListBytes)
        loadFail(detail::concat(
            "index file truncated (term count ", numTerms,
            " exceeds remaining file size)"));
    std::vector<CompressedPostingList> lists(numTerms);
    for (std::uint32_t t = 0; t < numTerms; ++t) {
        CompressedPostingList &list = lists[t];
        list.term = readPod<TermId>(r);
        list.scheme =
            static_cast<compress::Scheme>(readPod<std::uint8_t>(r));
        list.docCount = readPod<std::uint32_t>(r);
        list.idf = readPod<float>(r);
        list.maxTermScore = readPod<float>(r);
        list.blocks = readVec<BlockMeta>(r, "block metadata");
        list.docPayload =
            r.payload(readCount<std::uint8_t>(r, "doc payload"));
        list.tfPayload =
            r.payload(readCount<std::uint8_t>(r, "tf payload"));
        validateList(list, t);
    }

    r.finish();
    return InvertedIndex(params, std::move(docs), avgDocLen,
                         std::move(lists));
}

} // namespace

struct IndexFileWriter::Impl
{
    explicit Impl(std::ostream &os) : w(os) {}
    CrcWriter w;
};

IndexFileWriter::IndexFileWriter(std::ostream &os,
                                 const Bm25Params &params,
                                 double avgDocLen,
                                 const std::vector<DocInfo> &docs,
                                 std::uint32_t numTerms)
    : impl_(std::make_unique<Impl>(os)), declaredTerms_(numTerms)
{
    CrcWriter &w = impl_->w;
    writePod(w, kMagic);
    writePod(w, kVersion);

    Crc32 headerCrc;
    double k1 = params.k1;
    double b = params.b;
    writePod(w, k1);
    writePod(w, b);
    writePod(w, avgDocLen);
    headerCrc.update(&k1, sizeof(k1));
    headerCrc.update(&b, sizeof(b));
    headerCrc.update(&avgDocLen, sizeof(avgDocLen));
    writePod(w, headerCrc.value());

    writeVec(w, docs);
    writePod<std::uint32_t>(w, numTerms);
}

IndexFileWriter::~IndexFileWriter()
{
    BOSS_ASSERT(finished_,
                "IndexFileWriter destroyed before finish()");
}

void
IndexFileWriter::writeList(const CompressedPostingList &list)
{
    BOSS_ASSERT(!finished_, "writeList() after finish()");
    BOSS_ASSERT(writtenTerms_ < declaredTerms_,
                "more lists than the declared term count ",
                declaredTerms_);
    writeListBody(impl_->w, list);
    ++writtenTerms_;
}

void
IndexFileWriter::finish()
{
    BOSS_ASSERT(!finished_, "finish() called twice");
    BOSS_ASSERT(writtenTerms_ == declaredTerms_,
                "finish() after ", writtenTerms_, " of ",
                declaredTerms_, " declared lists");
    impl_->w.writeRaw(impl_->w.crc());
    finished_ = true;
}

void
saveIndex(const InvertedIndex &index, std::ostream &os)
{
    IndexFileWriter writer(os, index.scorer().params(),
                           index.avgDocLen(), index.docs(),
                           index.numTerms());
    for (TermId t = 0; t < index.numTerms(); ++t)
        writer.writeList(index.list(t));
    writer.finish();
}

InvertedIndex
loadIndex(std::istream &is)
{
    try {
        StreamReader r(is);
        return parseIndex(r);
    } catch (const LoadError &e) {
        BOSS_FATAL(e.message);
    }
}

std::optional<InvertedIndex>
tryLoadIndex(std::istream &is, std::string *error)
{
    try {
        StreamReader r(is);
        return parseIndex(r);
    } catch (const LoadError &e) {
        if (error != nullptr)
            *error = e.message;
        return std::nullopt;
    }
}

void
saveIndexFile(const InvertedIndex &index, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        BOSS_FATAL("cannot open '", path, "' for writing");
    saveIndex(index, os);
    if (!os)
        BOSS_FATAL("error writing '", path, "'");
}

InvertedIndex
loadIndexFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        BOSS_FATAL("cannot open '", path, "' for reading");
    InvertedIndex index = loadIndex(is);
    // A standalone index file must end right after the checksum;
    // trailing bytes mean the file is not what it claims to be.
    // (Streams are not checked: text-index files legitimately
    // concatenate a lexicon after the index.)
    is.peek();
    if (!is.eof())
        BOSS_FATAL("index file '", path,
                   "' has trailing garbage after the checksum");
    return index;
}

std::shared_ptr<MappedIndex>
MappedIndex::tryOpen(const std::string &path, std::string *error)
{
    auto fail = [&](std::string message) -> std::shared_ptr<MappedIndex> {
        if (error != nullptr)
            *error = std::move(message);
        return nullptr;
    };

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(detail::concat("cannot open '", path,
                                   "' for reading"));
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return fail(detail::concat("cannot stat '", path,
                                   "' (or file is empty)"));
    }
    auto size = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping holds its own reference to the file; the
    // descriptor is not needed past this point.
    ::close(fd);
    if (map == MAP_FAILED)
        return fail(detail::concat("cannot mmap '", path, "'"));

    std::shared_ptr<MappedIndex> mi(new MappedIndex());
    mi->base_ = static_cast<const std::uint8_t *>(map);
    mi->size_ = size;
    try {
        SpanReader r(mi->base_, mi->size_);
        mi->index_ = std::make_unique<InvertedIndex>(parseIndex(r));
        mi->indexEnd_ = mi->fileOffset(r.pos());
    } catch (const LoadError &e) {
        return fail(e.message); // dtor unmaps
    }
    return mi;
}

std::shared_ptr<MappedIndex>
MappedIndex::open(const std::string &path)
{
    std::string error;
    auto mi = tryOpen(path, &error);
    if (mi == nullptr)
        BOSS_FATAL(error);
    return mi;
}

MappedIndex::~MappedIndex()
{
    if (base_ != nullptr)
        ::munmap(const_cast<std::uint8_t *>(base_), size_);
}

bool
MappedIndex::hasLexicon() const
{
    return indexEnd_ < size_;
}

Lexicon
MappedIndex::loadLexicon() const
{
    BOSS_ASSERT(hasLexicon(), "index file carries no lexicon section");
    // The lexicon is metadata-sized; a stream copy keeps Lexicon's
    // single (istream) load path.
    std::istringstream is(std::string(
        reinterpret_cast<const char *>(base_) + indexEnd_,
        size_ - indexEnd_));
    return Lexicon::load(is);
}

} // namespace boss::index
