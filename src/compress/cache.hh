/**
 * @file
 * Content-addressed cache of the pipeline's Enumerate and Select
 * products, shared by concurrent compressions of a job corpus.
 *
 * The farm (src/farm) compresses many (program, config) pairs at once;
 * sweeps revisit the same program under several schemes and strategies,
 * and generated corpora contain outright duplicate programs. Both
 * stages are deterministic pure functions of their keys, so caching
 * their results cannot change any output image:
 *
 *   candidates = f(program bytes, minEntryLen, maxEntryLen)
 *   selection  = f(program bytes, full compressor config)
 *
 * Keys are FNV-1a64 over the program's serialized bytes combined with
 * the config fields the stage depends on. Candidate enumeration is
 * scheme-independent, so one enumeration serves all schemes and
 * strategies of a program -- the common sweep shape. Values are
 * shared_ptr-to-const: readers on any thread hold the product alive
 * without copying it.
 *
 * Lookups are single-flight. The first lookup of a key claims it: it
 * receives a Claim and must compute the product and store() it. A
 * lookup that finds the key claimed waits for that product and counts
 * as a hit, so concurrent duplicates compute each product once and the
 * hit/miss counts depend on the job list alone, not on scheduling. A
 * claim dropped without a store (its owner threw or stopped early)
 * releases the key, and one waiter claims it and recomputes.
 *
 * Lock order: a pipeline claims its Select key before it looks up its
 * Enumerate key, and never waits on a Select key while it holds an
 * Enumerate claim. A thread waiting on a Select key holds no claim; a
 * thread waiting on an Enumerate key holds at most a Select claim,
 * while the Enumerate owner it waits on computes and waits for
 * nothing. So no wait cycle can form. mutex_ guards only the maps and
 * counters: no wait, computation or disk I/O happens under it.
 *
 * Two robustness layers sit on top of the in-memory map:
 *
 *  - a bounded footprint: setCapacity() caps the entry count and/or
 *    approximate byte size, with least-recently-used eviction (the
 *    Stats::evictions counter reports how often the cap bit);
 *  - a crash-safe persistent backing store: setDiskStore() points the
 *    cache at a directory where every product is also written as one
 *    file -- temp-file + atomic rename (tryWriteFileAtomic), sealed in
 *    the checksummed envelope (support/serialize.hh). In-memory misses fall back to disk,
 *    so a warm directory survives process restarts (and is how the
 *    farm's isolated workers share work). Only the claimant of a key
 *    reads and writes its file, so no two threads of a process touch
 *    one file at once. A corrupt, truncated, or version-skewed file is
 *    detected by the checksum/structure checks, quarantined (renamed
 *    *.quarantined), and silently recomputed: damage can degrade
 *    throughput but can never alter a result.
 *
 * A PipelineCache is attached to a compression through
 * PipelineContext::cache (pipeline.hh); a null cache leaves the
 * pipeline exactly as before.
 */

#ifndef CODECOMP_COMPRESS_CACHE_HH
#define CODECOMP_COMPRESS_CACHE_HH

#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compress/candidates.hh"
#include "compress/compressor.hh"
#include "compress/selection.hh"

namespace codecomp::compress {

/** A cached Select product: the selection plus the strategy's round
 *  count (so cached stats report the rounds the original run took). */
struct CachedSelection
{
    SelectionResult selection;
    uint32_t rounds = 1;
};

class PipelineCache
{
  public:
    /** Hit/miss counters per cached stage (monotonic; thread-safe). */
    struct Stats
    {
        uint64_t enumHits = 0;
        uint64_t enumMisses = 0;
        uint64_t selectHits = 0;
        uint64_t selectMisses = 0;
        uint64_t evictions = 0;      //!< in-memory entries dropped by cap
        uint64_t persistHits = 0;    //!< memory misses served from disk
        uint64_t persistMisses = 0;  //!< misses disk could not serve
        uint64_t persistStores = 0;  //!< entry files written
        uint64_t persistCorrupt = 0; //!< damaged files quarantined
    };

    using CandidateList = std::vector<Candidate>;

    /** FNV-1a64 over the program's serialized bytes -- the
     *  content-identity half of every cache key. */
    static uint64_t programHash(const Program &program);

    /** Key of the Enumerate product: program content plus the entry
     *  length window (the only config enumeration reads). */
    static uint64_t enumerateKey(uint64_t programHash,
                                 const CompressorConfig &config);

    /** Key of the Select product: program content plus every config
     *  field that can steer selection. */
    static uint64_t selectKey(uint64_t programHash,
                              const CompressorConfig &config);

    class Claim;

    /** Cached candidates for @p key (a hit, possibly after waiting for
     *  another claimant). Null on a miss, which leaves @p claim owning
     *  the key: compute the product and store() it. */
    std::shared_ptr<const CandidateList> findCandidates(uint64_t key,
                                                        Claim &claim);

    /** Cached selection for @p key; same contract as findCandidates. */
    std::shared_ptr<const CachedSelection> findSelection(uint64_t key,
                                                         Claim &claim);

    /** Publish the product of a claimed miss and release @p claim:
     *  waiters receive it, and it is inserted and persisted. */
    void store(Claim &claim,
               std::shared_ptr<const CandidateList> candidates);
    void store(Claim &claim,
               std::shared_ptr<const CachedSelection> selection);

    /**
     * Bound the in-memory footprint: at most @p maxEntries products
     * and/or @p maxBytes approximate payload bytes (0 = unlimited).
     * When a store exceeds a cap the least-recently-used products are
     * evicted (Stats::evictions). Disk copies are never evicted, so a
     * capped cache backed by a store degrades to disk reads, not to
     * recomputation.
     */
    void setCapacity(size_t maxEntries, uint64_t maxBytes);

    /**
     * Back the cache with directory @p dir (created if absent). Every
     * store is also written as one checksummed file via temp-file +
     * atomic rename; misses fall back to disk. If the directory cannot
     * be created or written the store is disabled with a warning --
     * persistence failures never fail a compression. Returns whether
     * the store is usable. Call it before the cache is shared.
     */
    bool setDiskStore(const std::string &dir);

    const std::string &diskDir() const { return diskDir_; }

    /** In-memory product count (after eviction), for tests. */
    size_t entryCount() const;

    Stats stats() const;

  private:
    enum class Kind : uint8_t { Enumerate = 1, Select = 2 };
    using EntryKey = std::pair<uint8_t, uint64_t>; //!< (Kind, key)

    /** One stage's product; empty when a claim was dropped. */
    struct Product
    {
        std::shared_ptr<const CandidateList> candidates;
        std::shared_ptr<const CachedSelection> selection;

        explicit operator bool() const { return candidates || selection; }
    };

    struct Entry
    {
        Product product;
        uint64_t bytes = 0;
        std::list<EntryKey>::iterator lruIt;
    };

    /** Hit (possibly after waiting), disk hit, or claimed miss. */
    Product lookup(Kind kind, uint64_t key, Claim &claim);
    /** Resolve @p claim with @p product (empty = drop it). */
    void resolve(Claim &claim, Product product, bool persistIt);

    /** Insert (or refresh) under the lock, applying the caps. */
    void insertLocked(EntryKey entryKey, Entry entry);
    void touchLocked(Entry &entry, EntryKey entryKey);
    void evictLocked();

    /** Disk-store I/O, done by a key's claimant outside the lock. */
    enum class DiskRead { Absent, Loaded, Corrupt };
    DiskRead loadFromDisk(const std::string &dir, Kind kind, uint64_t key,
                          Product &out) const;
    bool persist(const std::string &dir, Kind kind, uint64_t key,
                 const Product &product) const;

    mutable std::mutex mutex_;
    std::map<EntryKey, Entry> entries_;
    std::map<EntryKey, std::shared_future<Product>> inFlight_;
    std::list<EntryKey> lru_; //!< front = most recently used
    uint64_t totalBytes_ = 0;
    size_t maxEntries_ = 0;  //!< 0 = unlimited
    uint64_t maxBytes_ = 0;  //!< 0 = unlimited
    std::string diskDir_;    //!< "" = no persistent store
    Stats stats_;

  public:
    /**
     * Ownership of one claimed key, from a missed lookup until the
     * product is stored. Destroying an unresolved claim releases the
     * key so a waiter can recompute it. A default Claim owns nothing.
     */
    class Claim
    {
      public:
        Claim() = default;
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;
        ~Claim();

        /** True while this claim owns a key. */
        explicit operator bool() const { return cache_ != nullptr; }

      private:
        friend class PipelineCache;
        PipelineCache *cache_ = nullptr;
        EntryKey entryKey_{};
        std::promise<Product> promise_;
    };
};

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CACHE_HH
