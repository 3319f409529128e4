#include "compress/cache.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "compress/objfile.hh"
#include "support/logging.hh"
#include "support/serialize.hh"

namespace codecomp::compress {

namespace {

/** Fold @p fields into @p seed with FNV-1a64 over their bytes. */
uint64_t
hashFields(uint64_t seed, const std::vector<uint64_t> &fields)
{
    ByteSink sink;
    sink.put64(seed);
    for (uint64_t field : fields)
        sink.put64(field);
    return fnv1a64(sink.bytes());
}

/**
 * A persistent entry file is the checksummed envelope
 * (support/serialize.hh) around this payload (big-endian):
 *
 *   u8   kind    (1 = Enumerate, 2 = Select)
 *   u64  key     (must match the file's own name)
 *   the product (putCandidates / putSelection)
 *
 * Anything that deviates -- magic, version, kind, key, checksum,
 * truncation, trailing bytes, or a payload that fails structural
 * parsing -- quarantines the file and reads as a miss. v2 moved the
 * kind and key from a hand-written header into the payload, so a v1
 * entry reads as corrupt and is recomputed.
 */
constexpr uint32_t kStoreMagic = 0x43434348; // "CCCH"
constexpr uint32_t kStoreVersion = 2;

uint64_t
approxCandidateBytes(const PipelineCache::CandidateList &candidates)
{
    uint64_t bytes = 4;
    for (const Candidate &c : candidates)
        bytes += 8 + 4 * (c.seq.size() + c.positions.size());
    return bytes;
}

uint64_t
approxSelectionBytes(const CachedSelection &cached)
{
    uint64_t bytes = 16;
    for (const auto &entry : cached.selection.dict.entries)
        bytes += 4 + 4 * entry.size();
    bytes += 12 * cached.selection.placements.size();
    bytes += 4 * cached.selection.useCount.size();
    return bytes;
}

void
putCandidates(ByteSink &sink, const PipelineCache::CandidateList &candidates)
{
    sink.put32(static_cast<uint32_t>(candidates.size()));
    for (const Candidate &c : candidates) {
        sink.put32(static_cast<uint32_t>(c.seq.size()));
        for (isa::Word word : c.seq)
            sink.put32(word);
        sink.put32(static_cast<uint32_t>(c.positions.size()));
        for (uint32_t pos : c.positions)
            sink.put32(pos);
    }
}

void
putSelection(ByteSink &sink, const CachedSelection &cached)
{
    sink.put32(
        static_cast<uint32_t>(cached.selection.dict.entries.size()));
    for (const auto &entry : cached.selection.dict.entries) {
        sink.put32(static_cast<uint32_t>(entry.size()));
        for (isa::Word word : entry)
            sink.put32(word);
    }
    sink.put32(static_cast<uint32_t>(cached.selection.placements.size()));
    for (const Placement &p : cached.selection.placements) {
        sink.put32(p.start);
        sink.put32(p.length);
        sink.put32(p.entryId);
    }
    sink.put32(static_cast<uint32_t>(cached.selection.useCount.size()));
    for (uint32_t count : cached.selection.useCount)
        sink.put32(count);
    sink.put32(cached.rounds);
}

PipelineCache::CandidateList
parseCandidates(ByteSource &source)
{
    // A candidate is at least its two counts; a word or position 4.
    PipelineCache::CandidateList candidates(
        source.getCount(8, "candidates"));
    for (Candidate &c : candidates) {
        c.seq.resize(source.getCount(4, "words"));
        for (isa::Word &word : c.seq)
            word = source.get32();
        c.positions.resize(source.getCount(4, "positions"));
        for (uint32_t &pos : c.positions)
            pos = source.get32();
    }
    return candidates;
}

CachedSelection
parseSelection(ByteSource &source)
{
    CachedSelection cached;
    cached.selection.dict.entries.resize(source.getCount(4, "entries"));
    for (auto &entry : cached.selection.dict.entries) {
        entry.resize(source.getCount(4, "words"));
        for (isa::Word &word : entry)
            word = source.get32();
    }
    cached.selection.placements.resize(source.getCount(12, "placements"));
    for (Placement &p : cached.selection.placements) {
        p.start = source.get32();
        p.length = source.get32();
        p.entryId = source.get32();
    }
    cached.selection.useCount.resize(source.getCount(4, "use counts"));
    for (uint32_t &count : cached.selection.useCount)
        count = source.get32();
    cached.rounds = source.get32();
    return cached;
}

/** The store file of one product: enum-<key>.cce or sel-<key>.cce. */
std::string
entryPath(const std::string &dir, bool enumerate, uint64_t key)
{
    char name[40];
    std::snprintf(name, sizeof(name), "%s-%016llx.cce",
                  enumerate ? "enum" : "sel",
                  static_cast<unsigned long long>(key));
    return (std::filesystem::path(dir) / name).string();
}

} // namespace

uint64_t
PipelineCache::programHash(const Program &program)
{
    // The serialized form covers everything a compression can read:
    // text, data, relocations, symbols, entry point.
    return fnv1a64(saveProgram(program));
}

uint64_t
PipelineCache::enumerateKey(uint64_t programHash,
                            const CompressorConfig &config)
{
    // Enumeration walks basic blocks collecting sequences of
    // 1..maxEntryLen instructions; nothing else in the config matters.
    // (minEntryLen is a GreedyConfig field the context derives as 1;
    // keyed here so a future knob cannot silently alias.)
    return hashFields(programHash, {1u, config.maxEntryLen});
}

uint64_t
PipelineCache::selectKey(uint64_t programHash,
                         const CompressorConfig &config)
{
    return hashFields(programHash,
                      {static_cast<uint64_t>(config.scheme),
                       config.maxEntries, config.maxEntryLen,
                       config.assumedCodewordNibbles,
                       static_cast<uint64_t>(config.strategy),
                       config.refitMaxRounds});
}

std::shared_ptr<const PipelineCache::CandidateList>
PipelineCache::findCandidates(uint64_t key, Claim &claim)
{
    return lookup(Kind::Enumerate, key, claim).candidates;
}

std::shared_ptr<const CachedSelection>
PipelineCache::findSelection(uint64_t key, Claim &claim)
{
    return lookup(Kind::Select, key, claim).selection;
}

void
PipelineCache::store(Claim &claim,
                     std::shared_ptr<const CandidateList> candidates)
{
    resolve(claim, {std::move(candidates), nullptr}, true);
}

void
PipelineCache::store(Claim &claim,
                     std::shared_ptr<const CachedSelection> selection)
{
    resolve(claim, {nullptr, std::move(selection)}, true);
}

PipelineCache::Product
PipelineCache::lookup(Kind kind, uint64_t key, Claim &claim)
{
    CC_ASSERT(!claim, "lookup into a claim that already owns a key");
    EntryKey entryKey{static_cast<uint8_t>(kind), key};
    bool enumerate = kind == Kind::Enumerate;
    uint64_t &hits = enumerate ? stats_.enumHits : stats_.selectHits;
    uint64_t &misses = enumerate ? stats_.enumMisses : stats_.selectMisses;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = entries_.find(entryKey);
        if (it != entries_.end()) {
            ++hits;
            touchLocked(it->second, entryKey);
            return it->second.product;
        }
        auto flight = inFlight_.find(entryKey);
        if (flight == inFlight_.end())
            break;
        std::shared_future<Product> pending = flight->second;
        lock.unlock();
        Product product = pending.get();
        lock.lock();
        if (product) {
            ++hits;
            return product;
        }
        // The claimant dropped its claim: look again, and claim the
        // key unless another waiter already has.
    }

    claim.cache_ = this;
    claim.entryKey_ = entryKey;
    claim.promise_ = std::promise<Product>();
    inFlight_.emplace(entryKey, claim.promise_.get_future().share());
    if (diskDir_.empty()) {
        ++misses;
        return {};
    }
    lock.unlock();
    Product loaded;
    DiskRead read = loadFromDisk(diskDir_, kind, key, loaded);
    lock.lock();
    if (read == DiskRead::Loaded) {
        ++hits;
        ++stats_.persistHits;
        lock.unlock();
        resolve(claim, loaded, false);
        return loaded;
    }
    ++misses;
    ++(read == DiskRead::Corrupt ? stats_.persistCorrupt
                                 : stats_.persistMisses);
    return {};
}

void
PipelineCache::resolve(Claim &claim, Product product, bool persistIt)
{
    CC_ASSERT(claim.cache_ == this, "store without a claim");
    EntryKey entryKey = claim.entryKey_;
    Kind kind = static_cast<Kind>(entryKey.first);
    // Persist before publishing: while the claim is held no other
    // thread of this process can read or write the key's file.
    bool persisted = product && persistIt && !diskDir_.empty() &&
                     persist(diskDir_, kind, entryKey.second, product);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (persisted)
            ++stats_.persistStores;
        inFlight_.erase(entryKey);
        if (product) {
            Entry entry;
            entry.product = product;
            entry.bytes = kind == Kind::Enumerate
                              ? approxCandidateBytes(*product.candidates)
                              : approxSelectionBytes(*product.selection);
            insertLocked(entryKey, std::move(entry));
        }
    }
    claim.cache_ = nullptr;
    claim.promise_.set_value(std::move(product));
}

PipelineCache::Claim::~Claim()
{
    if (cache_)
        cache_->resolve(*this, {}, false);
}

void
PipelineCache::setCapacity(size_t maxEntries, uint64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxEntries_ = maxEntries;
    maxBytes_ = maxBytes;
    evictLocked();
}

bool
PipelineCache::setDiskStore(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir)) {
        CC_WARN("cache store '", dir, "' unusable (",
                ec ? ec.message() : "not a directory",
                "); persistence disabled");
        diskDir_.clear();
        return false;
    }
    diskDir_ = dir;
    return true;
}

size_t
PipelineCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

PipelineCache::Stats
PipelineCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
PipelineCache::insertLocked(EntryKey entryKey, Entry entry)
{
    auto [it, inserted] = entries_.emplace(entryKey, std::move(entry));
    if (!inserted)
        return; // first store wins; both products are identical
    lru_.push_front(entryKey);
    it->second.lruIt = lru_.begin();
    totalBytes_ += it->second.bytes;
    evictLocked();
}

void
PipelineCache::touchLocked(Entry &entry, EntryKey entryKey)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(entryKey);
    entry.lruIt = lru_.begin();
}

void
PipelineCache::evictLocked()
{
    while (!lru_.empty() &&
           ((maxEntries_ && entries_.size() > maxEntries_) ||
            (maxBytes_ && totalBytes_ > maxBytes_))) {
        auto it = entries_.find(lru_.back());
        CC_ASSERT(it != entries_.end(), "LRU list out of sync");
        totalBytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

bool
PipelineCache::persist(const std::string &dir, Kind kind, uint64_t key,
                       const Product &product) const
{
    std::string path = entryPath(dir, kind == Kind::Enumerate, key);
    std::error_code ec;
    if (std::filesystem::exists(path, ec))
        return false; // an identical product is already on disk

    ByteSink payload;
    payload.put8(static_cast<uint8_t>(kind));
    payload.put64(key);
    if (kind == Kind::Enumerate)
        putCandidates(payload, *product.candidates);
    else
        putSelection(payload, *product.selection);
    if (std::optional<LoadError> error = tryWriteFileAtomic(
            path, sealEnvelope(kStoreMagic, kStoreVersion,
                               payload.bytes()))) {
        CC_WARN("cache store write failed (", error->message(),
                "); entry not persisted");
        return false;
    }
    return true;
}

PipelineCache::DiskRead
PipelineCache::loadFromDisk(const std::string &dir, Kind kind, uint64_t key,
                            Product &out) const
{
    std::string path = entryPath(dir, kind == Kind::Enumerate, key);
    Result<std::vector<uint8_t>> bytes = tryReadFile(path);
    if (!bytes.ok())
        return DiskRead::Absent;
    Result<Product> loaded = parseEnvelope(
        bytes.value(), kStoreMagic, kStoreVersion, "cache entry",
        [kind, key](ByteSource &body) {
            if (body.get8() != static_cast<uint8_t>(kind) ||
                body.get64() != key)
                body.fail(LoadStatus::BadValue, "kind/key mismatch");
            Product product;
            if (kind == Kind::Enumerate)
                product.candidates = std::make_shared<const CandidateList>(
                    parseCandidates(body));
            else
                product.selection = std::make_shared<const CachedSelection>(
                    parseSelection(body));
            return product;
        });
    if (!loaded.ok()) {
        // Damaged entry: quarantine it so the key recomputes cleanly
        // (and the file stays inspectable), and read it as a miss.
        std::error_code ec;
        std::filesystem::rename(path, path + ".quarantined", ec);
        if (ec)
            std::filesystem::remove(path, ec);
        return DiskRead::Corrupt;
    }
    out = loaded.take();
    return DiskRead::Loaded;
}

} // namespace codecomp::compress
