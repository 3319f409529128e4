/**
 * @file
 * The uniform fetch stream of both processors, and the hook that
 * observes it.
 *
 * Every consumer of a run -- cache models, the timing subsystem, the
 * traffic profiler -- wants the same thing: one event per fetch-unit
 * item carrying its memory footprint and what it retired. Both
 * processors emit FetchEvent; FetchStats is the default accumulator
 * over that stream.
 *
 * Each processor has one step/run body, a header template over an
 * observer whose `onFetch(const FetchEvent &)` the compiler inlines
 * into the loop (Cpu::runWith, CompressedCpu::runWith). A FetchHook
 * selects the instantiation that run() enters:
 *
 *  - no hook: the loop with an empty observer;
 *  - a hook built from a per-event callable (a lambda): the loop calls
 *    it through one std::function call per item, as step() does for
 *    any hook;
 *  - FetchHook::inlined(observer): the loop instantiated for the
 *    observer's own type, with its onFetch inlined. The type erasure
 *    happens once per run() instead of once per item.
 *    timing::FetchTimer::hook() is built this way.
 */

#ifndef CODECOMP_DECOMPRESS_FETCH_HH
#define CODECOMP_DECOMPRESS_FETCH_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

namespace codecomp {

class Cpu;
class CompressedCpu;
struct ExecResult;

/**
 * One fetch-unit item, uniform across processors. For the plain Cpu an
 * item is a 4-byte instruction; for the CompressedCpu it is one slot of
 * the compressed stream (an uncompressed instruction or a codeword),
 * with the nibble footprint rounded outward to whole bytes.
 */
struct FetchEvent
{
    uint32_t addr;      //!< byte address of the item's first byte
    uint32_t bytes;     //!< memory footprint of the item
    uint32_t retired;   //!< architectural instructions this item retired
    bool isCodeword;    //!< dictionary codeword (CompressedCpu only)
    bool taken;         //!< item ended in a taken branch (redirect)
    /** Dictionary rank of a codeword item (0 otherwise). Lets timing
     *  consumers model a pre-expanded decode cache over the hottest
     *  (lowest-rank) entries without re-decoding the stream. */
    uint32_t rank = 0;
};

/** The run loops' observer when no hook is installed. */
struct NoFetchObserver
{
    void onFetch(const FetchEvent &) const {}
};

/**
 * Observe every fetch-unit item; fires after the item's effects land
 * (so FetchEvent::retired and ::taken are final), including the halting
 * Sc. Install with Cpu/CompressedCpu::setFetchHook.
 */
class FetchHook
{
  public:
    /** No hook: the processor runs its unobserved loop. */
    FetchHook() = default;

    /** A generic per-event callable, called once per item. */
    template <typename F>
        requires(!std::same_as<std::remove_cvref_t<F>, FetchHook> &&
                 std::invocable<F &, const FetchEvent &>)
    FetchHook(F &&each) : each_(std::forward<F>(each))
    {
    }

    /**
     * A hook whose run() enters the processor's loop instantiated for
     * @p observer's type, so `observer.onFetch(event)` is inlined into
     * it; step() still reaches the observer through one indirect call.
     * @p observer must outlive the processor's use of the hook.
     */
    template <typename Observer>
    static FetchHook
    inlined(Observer &observer)
    {
        FetchHook hook([&observer](const FetchEvent &event) {
            observer.onFetch(event);
        });
        hook.observer_ = &observer;
        hook.runCpu_ = &runInlined<Cpu, Observer>;
        hook.runCompressed_ = &runInlined<CompressedCpu, Observer>;
        return hook;
    }

    /** The per-event path: what step() and a lambda hook's run() call. */
    void
    onFetch(const FetchEvent &event) const
    {
        if (each_)
            each_(event);
    }

  private:
    friend class Cpu;
    friend class CompressedCpu;

    /** Entered by run(): the processor type is a template parameter so
     *  that neither processor has to be complete in this header. */
    template <typename Processor, typename Observer>
    static auto
    runInlined(void *observer, Processor &cpu, uint64_t max_steps)
        -> decltype(cpu.runWith(*static_cast<Observer *>(observer),
                                max_steps))
    {
        return cpu.runWith(*static_cast<Observer *>(observer), max_steps);
    }

    std::function<void(const FetchEvent &)> each_;
    void *observer_ = nullptr;
    ExecResult (*runCpu_)(void *, Cpu &, uint64_t) = nullptr;
    ExecResult (*runCompressed_)(void *, CompressedCpu &,
                                 uint64_t) = nullptr;
};

/** Fetch-path statistics (decode-efficiency discussion, paper 2.1),
 *  accumulated from the event stream. */
struct FetchStats
{
    uint64_t itemFetches = 0;     //!< slots fetched from the stream
    uint64_t codewordFetches = 0; //!< slots that were codewords
    uint64_t expandedInsts = 0;   //!< instructions produced by expansion
    uint64_t fetchedBytes = 0;    //!< bytes moved by the fetch unit
    uint64_t takenBranches = 0;   //!< front-end redirects

    void
    record(const FetchEvent &event)
    {
        ++itemFetches;
        fetchedBytes += event.bytes;
        takenBranches += event.taken;
        if (event.isCodeword) {
            ++codewordFetches;
            expandedInsts += event.retired;
        }
    }

    void reset() { *this = FetchStats{}; }

    bool operator==(const FetchStats &) const = default;
};

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_FETCH_HH
