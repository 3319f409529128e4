/**
 * @file
 * The benchmark's three workloads. Each is a closed loop with one
 * client: set up references, then run ops -- one per tuple of the
 * workload, in seeded rounds (stats.hh roundOrder) -- checking every
 * op's output. README.md explains why each workload exists and which
 * end-to-end metric each layer should move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** What one op did. */
struct OpOutcome
{
    std::string error; //!< empty = every correctness gate held
    double work = 0.0; //!< instructions processed (insts_per_s)
};

/** Per-layer metric values by name (units live in main.cc's table). */
using LayerValues = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual size_t tupleCount() const = 0;
    virtual std::string tupleLabel(size_t tuple) const = 0;

    /** Whether an op runs on the calling thread alone (no pool work),
     *  so the harness may pin it to one CPU at a time. */
    virtual bool singleThreaded() const { return false; }

    /** Build every reference the ops are checked against. Called
     *  several times per run (setup_s is their median); each call
     *  replaces the previous references. */
    virtual void setUp() = 0;

    /**
     * Run op @p op on tuple @p tuple. With a tracer, each layer call
     * gets a child span of @p root and the op's layer counters are
     * accumulated for layerValues(); without one nothing is recorded.
     */
    virtual OpOutcome run(size_t tuple, uint32_t op, Tracer *tracer,
                          int32_t root) = 0;

    /** Traced runs only, after op @p op and outside it: measurements
     *  a layer metric needs that are not part of the op (plain
     *  interpreter runs, lockstep). Returns an error, or "". */
    virtual std::string probe(size_t /*tuple*/, uint32_t /*op*/,
                              Tracer & /*tracer*/)
    {
        return "";
    }

    /** Compressed/original bytes of tuple @p tuple's image, as the
     *  last op on it measured (0 if never run). */
    virtual double ratio(size_t tuple) const = 0;

    /** Compressed/native cycles of tuple @p tuple (0 where the
     *  workload runs no timing model). */
    virtual double cyclesRatio(size_t /*tuple*/) const { return 0.0; }

    /**
     * Fill the per-layer metrics this workload exercises from the
     * spans of its @p tracedOps traced ops (by name, probes included)
     * and its own accumulated counters. Metrics it leaves out read 0.
     */
    virtual void layerValues(const std::map<std::string, double> &spanMs,
                             double tracedOps, LayerValues &out) const = 0;
};

/** The workload named @p name ("toolchain", "farm", "execute"), or
 *  null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned poolWidth);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
