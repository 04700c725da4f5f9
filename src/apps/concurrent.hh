/**
 * @file
 * Concurrent persistent workloads for the N-core System.
 *
 * Three kernels modelled on the classic lock-free / synchronization
 * case studies (Michael-Scott queue, reader-writer lock, RCU list),
 * each rewritten as a *persistent* structure in the paper's style:
 * every structural update persists its lines with DC CVAP and orders
 * the publishing store behind the persist.  The ordering token is
 * lowered per Table III configuration, exactly as the NvmFramework
 * lowers its undo-log patterns:
 *
 *  - B  : DC CVAP ; DSB SY ; publish
 *  - SU : DC CVAP ; DMB ST ; publish       (unsafe: DMB ST does not
 *                                           order the CVAP)
 *  - IQ / WB : DC CVAP defines the core's key; the publish store
 *              consumes it -- no fence
 *  - U  : DC CVAP ; publish                (no ordering)
 *
 * Each core runs its own instruction stream against a private EDK
 * key, and cross-core persist ordering is expressed with WAIT_KEY /
 * WAIT_ALL_KEYS on *another* core's key -- the counters span the
 * coherence point, so a waiter drains the remote core's in-flight
 * keyed persists (see core/cross_core.hh).  Per-core EDM files mean
 * a use-key only links to a producer on the same core; the workloads
 * respect that split.  Where a core depends on data a *remote* core
 * persisted (a dequeuer exposing a remote node, a reader demanding a
 * durable record, an updater taking over the RCU update role), the
 * generator emits a remote-drain sequence: WAIT_KEY on the owner's
 * key under EDE, or re-CVAP the remote lines plus a fence under the
 * fence configurations (SU inherits its DMB ST hole here too).
 *
 * Generation is functional-first, like every trace generator in this
 * repo: a seeded *global interleaving* serializes the cores'
 * operations, a host-side model of the structure resolves every
 * address and value under that order, and each operation's micro-ops
 * are appended to its core's trace.  The timing simulation then
 * replays the N streams lock-step; values are already resolved, so
 * timing never changes the functional outcome (the hazard-pointer
 * bench uses the same idiom on one core).
 *
 * The host model doubles as the crash-recovery oracle: it records
 * what each kernel ever made reachable, and checkConcInvariants
 * walks a recovered NVM image against that record, naming the first
 * violated invariant (see the per-kernel invariant list there).
 */

#ifndef EDE_APPS_CONCURRENT_HH
#define EDE_APPS_CONCURRENT_HH

#include <array>
#include <map>
#include <string_view>
#include <vector>

#include "isa/edk.hh"
#include "mem/memory_image.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ede {

/** The concurrent kernels. */
enum class ConcApp { MsQueue, RwLock, RcuList };

/** All concurrent kernels, presentation order. */
inline constexpr std::array<ConcApp, 3> kAllConcApps = {
    ConcApp::MsQueue, ConcApp::RwLock, ConcApp::RcuList,
};

/** Printable kernel name. */
constexpr std::string_view
concAppName(ConcApp app)
{
    switch (app) {
      case ConcApp::MsQueue: return "msqueue";
      case ConcApp::RwLock: return "rwlock";
      case ConcApp::RcuList: return "rcu";
    }
    return "<bad-conc-app>";
}

/** Generator tunables. */
struct ConcParams
{
    Config cfg = Config::B;      ///< Table III lowering to apply.
    unsigned cores = 1;          ///< One trace per core.
    int opsPerCore = 256;        ///< Operations each core performs.
    std::uint64_t seed = 42;     ///< Global-interleaving seed.

    /**
     * Pace the cores so machine execution tracks the host model's
     * serialization (required by the crash-consistency checkers; see
     * opSchedule in the .cc).  Off by default: the timing benches
     * keep the historical free-running interleave.
     */
    bool paced = false;
};

/** Nodes the RCU list starts with (built durably by core 0). */
inline constexpr int kConcRcuInitLen = 16;

/**
 * @name Shared NVM layout.
 *
 * Control cells sit one per 256 B NVM *media* line (not merely one
 * per 64 B cache line): the durable-set lattice chains successive
 * persists of one media line, so co-locating two control cells would
 * entangle their persist histories and every counterexample would
 * drag in the other cell's whole chain.  Per-core node arenas are
 * 1 MiB apart; concNodeOwner inverts the mapping.
 */
/// @{
inline constexpr Addr kConcNvmBase = 2ull << 30;
inline constexpr Addr kConcQueueHead = kConcNvmBase + 0x000;
inline constexpr Addr kConcQueueTail = kConcNvmBase + 0x100;
inline constexpr Addr kConcLockWord = kConcNvmBase + 0x200;
inline constexpr Addr kConcRwStamp = kConcNvmBase + 0x300;
inline constexpr Addr kConcRwData = kConcNvmBase + 0x400;
inline constexpr int kConcRwLines = 4;   ///< 4 x 64 B, one media line.
inline constexpr Addr kConcListHead = kConcNvmBase + 0x600;
inline constexpr Addr kConcRwReceiptBase = kConcNvmBase + 0x800;
inline constexpr Addr kConcArenaBase = kConcNvmBase + 0x100000;
inline constexpr Addr kConcArenaStride = 0x100000;

/**
 * Core @p core's durable read receipt (rwlock): a durable reader
 * persists the version it read here, *after* draining the writer it
 * read from -- the receipt is what makes a "durable read" observable
 * in a crash image, so the oracle can demand the data it witnessed
 * is at least as durable as the witness.  One media line per core.
 */
constexpr Addr
concRwReceipt(unsigned core)
{
    return kConcRwReceiptBase + 0x100ull * core;
}

/** The core whose arena holds @p node (see arenaNode in the .cc). */
constexpr unsigned
concNodeOwner(Addr node)
{
    return static_cast<unsigned>((node - kConcArenaBase) /
                                 kConcArenaStride);
}
/// @}

/**
 * The most cores an EDE configuration supports: the ISA has
 * kNumEdks - 1 = 15 real keys and the generator dedicates one per
 * core.  Asking for more under an EDE configuration fails generation
 * with SimErrorKind::CoreCountKeyExhausted (see
 * buildConcurrentWorkload) instead of silently aliasing two cores
 * onto one key, which would let a WAIT drain the wrong core's
 * persists and mask ordering bugs.  Fence configurations never
 * consume keys and scale past this bound.
 */
inline constexpr unsigned kMaxConcEdeCores = kNumEdks - 1;

/**
 * The EDK key core @p core produces: keys are handed out round-robin
 * (key 1 + core), one real key per core, valid only for
 * core < kMaxConcEdeCores -- buildConcurrentWorkload performs the
 * collision check before any trace is built.  Cross-core waiters
 * name a peer's key explicitly via this mapping.
 */
constexpr Edk
concCoreKey(unsigned core)
{
    return static_cast<Edk>(1 + core);
}

/**
 * The host model's record of everything a kernel made reachable,
 * kept alongside the traces so a recovered crash image can be
 * audited without re-deriving the interleaving.
 */
struct ConcModel
{
    ConcApp app = ConcApp::MsQueue;
    unsigned cores = 1;

    /** MS-queue: every enqueued node address -> stored value. */
    std::map<Addr, std::uint64_t> queueNodes;

    /** rwlock: the highest version any writer published. */
    std::uint64_t maxVersion = 0;

    /** RCU: every node ever linked into the list -> stored value. */
    std::map<Addr, std::uint64_t> listNodes;
};

/**
 * One structural operation's trace span in paced mode: core @p core
 * executes trace indices [first, last).  Spans are recorded in the
 * model's global serialization order, and the pacing contract is that
 * the machine serializes them too -- every persist the span pushes is
 * accepted after every persist of every earlier span.  The harness
 * verifies exactly that post-run (SimErrorKind::PacingDrift on
 * failure), because the generators resolve cross-core values
 * host-side under this order and a drifted run would be silently
 * unsound.
 */
struct ConcOpSpan
{
    unsigned core = 0;
    std::size_t first = 0;  ///< First trace index of the op.
    std::size_t last = 0;   ///< One past the op's final index.
};

/** Traces plus the oracle model that generated them. */
struct ConcWorkload
{
    std::vector<Trace> traces;  ///< Index i binds to core i.
    ConcModel model;

    /** Paced mode only: ops in global serialization order. */
    std::vector<ConcOpSpan> opSpans;
};

/**
 * Build kernel @p app's per-core traces and oracle model
 * (traces.size() == p.cores).  Deterministic in (app, p).  Throws
 * SimFaultError carrying SimErrorKind::CoreCountKeyExhausted when an
 * EDE configuration asks for more cores than there are real keys,
 * and SimErrorKind::RunRequestInvalid (the limit in its detail) when
 * a paced workload's rounds would outgrow the per-core pace-read
 * lines -- at 4 cores, beyond 28 ops per core.
 */
ConcWorkload buildConcurrentWorkload(ConcApp app, const ConcParams &p);

/** Traces only; see buildConcurrentWorkload. */
std::vector<Trace> buildConcurrentTraces(ConcApp app,
                                         const ConcParams &p);

/**
 * The recovery oracle: audit a recovered NVM image against the
 * model.  Returns nullptr when every invariant holds, else the name
 * of the first violated invariant:
 *
 *  - "msqueue-node-lost":       the durable head chain reaches a node
 *                               whose enqueued value never became
 *                               durable (or was never enqueued);
 *  - "msqueue-doubly-linked":   the durable head chain revisits a
 *                               node (a cycle through stale links);
 *  - "rwlock-torn-write":       the durable stamp admits a version
 *                               whose record lines are not all
 *                               durable at that version or newer;
 *  - "rcu-reclaimed-reachable": a poisoned (reclaimed) node is
 *                               reachable from the durable list head;
 *  - "rcu-dangling-node":       the durable list reaches a node whose
 *                               published contents never became
 *                               durable.
 */
const char *checkConcInvariants(const ConcModel &model,
                                const MemoryImage &image);

} // namespace ede

#endif // EDE_APPS_CONCURRENT_HH
